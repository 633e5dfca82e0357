//! # prophet-uml
//!
//! The UML activity-diagram metamodel and extension machinery of the
//! Performance Prophet reproduction (Pllana et al., ICPP-W 2008), i.e. the
//! model layer of **Teuta**.
//!
//! The paper models a scientific program as one or more UML *activity
//! diagrams* whose nodes are annotated through the UML extension
//! mechanisms — stereotypes, tagged values, and constraints (Section 2.1).
//! The performance profile defines, among others:
//!
//! * `<<action+>>` — a single-entry single-exit code region with tags
//!   `id`, `type`, `time` (Figure 1) plus `cost` (the associated cost
//!   function expression) and `code` (an associated code fragment,
//!   Figure 7(b)),
//! * `<<activity+>>` — a composite element whose content is a nested
//!   activity diagram (the `SA` element of Figure 7(a)),
//! * message-passing and shared-memory building blocks (`<<send>>`,
//!   `<<recv>>`, `<<barrier>>`, `<<parallel+>>`, …) from the authors'
//!   earlier UML extension \[17, 18\].
//!
//! Modules:
//!
//! * [`profile`] — stereotype/tag definitions and the performance profile,
//! * [`model`] — the arena-based model tree ([`Model`], [`Element`],
//!   [`Diagram`]), mirrored on the paper's statement that "the UML model,
//!   with its diagrams and modeling elements, forms a tree data
//!   structure",
//! * [`builder`] — a fluent API that plays the role of Teuta's drawing
//!   space,
//! * [`traverse`] — the Figure-6 `Traverser` / `Navigator` /
//!   `ContentHandler` trio,
//! * [`xmi`] — XML (XMI-flavoured) serialization of models, the
//!   `Models (XML)` artifact of Figure 2.
//!
//! ## Quickstart
//!
//! ```
//! use prophet_uml::builder::ModelBuilder;
//!
//! // The kernel-6 model of Figure 3(c): one <<action+>> with a cost fn.
//! let mut b = ModelBuilder::new("kernel6-model");
//! b.function("FK6", &["n"], "1.6e-9 * n * n");
//! let main = b.main_diagram();
//! let init = b.initial(main, "start");
//! let k6 = b.action(main, "Kernel6", "FK6(N)");
//! let fin = b.final_node(main, "end");
//! b.flow(main, init, k6);
//! b.flow(main, k6, fin);
//! let model = b.build();
//! assert_eq!(model.element_count(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod model;
pub mod profile;
pub mod traverse;
pub mod xmi;

pub use builder::ModelBuilder;
pub use model::{
    Diagram, DiagramId, Edge, Element, ElementId, FunctionDecl, Model, NodeKind, VarScope, VarType,
    Variable,
};
pub use profile::{
    performance_profile, Profile, Stereotype, StereotypeApplication, TagDef, TagType, TagValue,
};
pub use traverse::{
    ContentHandler, ExplicitStackNavigator, Navigator, RecordingHandler, RecursiveWalk,
    TraceMessage, Traverser, VisitPhase,
};
