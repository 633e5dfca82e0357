//! The arena-based model tree: [`Model`], [`Diagram`], [`Element`],
//! [`Edge`], variables and function declarations.
//!
//! The paper: "The UML model, with its diagrams and modeling elements,
//! forms a tree data structure. During the model transformation process
//! the tree is programmatically traversed…" — we store elements in a
//! `Vec` arena indexed by [`ElementId`] (cache-friendly, no `Rc` cycles)
//! and diagrams as node/edge lists over those ids.

use crate::profile::{performance_profile, Profile, StereotypeApplication, TagValue};

/// Index of an element in the model arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub usize);

/// Index of a diagram in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiagramId(pub usize);

/// The UML activity-diagram node kinds supported by the profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Initial node (filled circle).
    Initial,
    /// Activity final node (bullseye).
    ActivityFinal,
    /// Flow final node.
    FlowFinal,
    /// ActionNode — typically stereotyped `<<action+>>` or an MPI block.
    Action,
    /// Composite `<<activity+>>` whose content is another diagram.
    CallActivity(DiagramId),
    /// Decision node (diamond) — outgoing edges carry guards.
    Decision,
    /// Merge node (diamond joining alternative flows).
    Merge,
    /// Fork bar (parallel split).
    Fork,
    /// Join bar (parallel join).
    Join,
}

impl NodeKind {
    /// Short lowercase name used in XML and diagnostics.
    pub fn tag(&self) -> &'static str {
        match self {
            NodeKind::Initial => "initial",
            NodeKind::ActivityFinal => "final",
            NodeKind::FlowFinal => "flowfinal",
            NodeKind::Action => "action",
            NodeKind::CallActivity(_) => "activity",
            NodeKind::Decision => "decision",
            NodeKind::Merge => "merge",
            NodeKind::Fork => "fork",
            NodeKind::Join => "join",
        }
    }
}

/// A modeling element (node of an activity diagram).
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Arena id.
    pub id: ElementId,
    /// Element name (`A1`, `Kernel6`, `SA`, …).
    pub name: String,
    /// Node kind.
    pub kind: NodeKind,
    /// Owning diagram.
    pub diagram: DiagramId,
    /// Applied stereotype with tagged values, if any.
    pub stereotype: Option<StereotypeApplication>,
}

impl Element {
    /// The stereotype name if one is applied.
    pub fn stereotype_name(&self) -> Option<&str> {
        self.stereotype.as_ref().map(|s| s.stereotype.as_str())
    }

    /// True if this element is *performance relevant* per the Figure-5
    /// algorithm (lines 1–8): selected by stereotype name.
    pub fn is_performance_element(&self) -> bool {
        matches!(
            self.stereotype_name(),
            Some(
                "action+"
                    | "activity+"
                    | "loop+"
                    | "parallel+"
                    | "critical+"
                    | "send"
                    | "recv"
                    | "broadcast"
                    | "reduce"
                    | "allreduce"
                    | "scatter"
                    | "gather"
                    | "barrier"
            )
        )
    }

    /// A tagged value by name.
    pub fn tag(&self, name: &str) -> Option<&TagValue> {
        self.stereotype.as_ref().and_then(|s| s.get(name))
    }

    /// The cost-function expression associated with this element (tag
    /// `cost`), e.g. `FA1()`.
    pub fn cost_expr(&self) -> Option<&str> {
        match self.tag("cost") {
            Some(TagValue::Expr(s)) | Some(TagValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The associated code fragment (tag `code`), Figure 7(b).
    pub fn code_fragment(&self) -> Option<&str> {
        match self.tag("code") {
            Some(TagValue::Code(s)) | Some(TagValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// A guarded control-flow edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Source element.
    pub from: ElementId,
    /// Target element.
    pub to: ElementId,
    /// Guard expression for edges out of decision nodes. The literal
    /// `else` marks the default branch.
    pub guard: Option<String>,
}

/// An activity diagram: an ordered set of nodes plus control-flow edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagram {
    /// Diagram id within the model.
    pub id: DiagramId,
    /// Diagram name (`main`, `SA`, …).
    pub name: String,
    /// Node ids in creation order (the paper's traversal visits elements
    /// in diagram order).
    pub nodes: Vec<ElementId>,
    /// Control-flow edges.
    pub edges: Vec<Edge>,
}

impl Diagram {
    /// Outgoing edges of `node` in insertion order.
    pub fn outgoing<'a>(&'a self, node: ElementId) -> impl Iterator<Item = &'a Edge> + 'a {
        self.edges.iter().filter(move |e| e.from == node)
    }

    /// Incoming edges of `node`.
    pub fn incoming<'a>(&'a self, node: ElementId) -> impl Iterator<Item = &'a Edge> + 'a {
        self.edges.iter().filter(move |e| e.to == node)
    }
}

/// Variable type in the model (the paper's globals `GV`, `P` are ints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// C `int`.
    Int,
    /// C `double`.
    Double,
    /// C `bool`.
    Bool,
}

impl VarType {
    /// The type's name, as C++ and the model XML spell it.
    pub fn name(&self) -> &'static str {
        match self {
            VarType::Int => "int",
            VarType::Double => "double",
            VarType::Bool => "bool",
        }
    }
}

/// Whether a variable is global to the model or local to the program body
/// (Figure 5 distinguishes the two when generating C++).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarScope {
    /// Emitted before the cost functions (Figure 8(a) lines 24–25).
    Global,
    /// Emitted inside the program body (Figure 5 lines 20–23).
    Local,
}

/// A model variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub var_type: VarType,
    /// Scope.
    pub scope: VarScope,
    /// Optional initializer expression text.
    pub init: Option<String>,
}

/// A model-defined cost function (Figure 8(a) lines 31–54).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// Function name (`FA1`).
    pub name: String,
    /// Parameter names (`pid`, …).
    pub params: Vec<String>,
    /// Body expression source text.
    pub body: String,
}

/// A complete performance model: the tree of diagrams and elements plus
/// variables, cost functions, and the applied profile.
#[derive(Debug, Clone)]
pub struct Model {
    /// Model name.
    pub name: String,
    elements: Vec<Element>,
    /// Diagrams; index 0 is the main diagram.
    pub diagrams: Vec<Diagram>,
    /// Global and local variables.
    pub variables: Vec<Variable>,
    /// Cost functions defined in the model.
    pub functions: Vec<FunctionDecl>,
    /// The profile governing stereotype usage.
    pub profile: Profile,
}

impl Model {
    /// Empty model with a `main` diagram and the performance profile.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            elements: Vec::new(),
            diagrams: vec![Diagram {
                id: DiagramId(0),
                name: "main".into(),
                nodes: Vec::new(),
                edges: Vec::new(),
            }],
            variables: Vec::new(),
            functions: Vec::new(),
            profile: performance_profile(),
        }
    }

    /// The main diagram's id.
    pub fn main_diagram(&self) -> DiagramId {
        DiagramId(0)
    }

    /// Add a diagram; returns its id.
    pub fn add_diagram(&mut self, name: impl Into<String>) -> DiagramId {
        let id = DiagramId(self.diagrams.len());
        self.diagrams.push(Diagram {
            id,
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
        });
        id
    }

    /// Add an element to a diagram; returns its arena id.
    ///
    /// # Panics
    /// Panics if `diagram` does not exist (builder bug, not data error).
    pub fn add_element(
        &mut self,
        diagram: DiagramId,
        name: impl Into<String>,
        kind: NodeKind,
        stereotype: Option<StereotypeApplication>,
    ) -> ElementId {
        assert!(
            diagram.0 < self.diagrams.len(),
            "unknown diagram {diagram:?}"
        );
        let id = ElementId(self.elements.len());
        self.elements.push(Element {
            id,
            name: name.into(),
            kind,
            diagram,
            stereotype,
        });
        self.diagrams[diagram.0].nodes.push(id);
        id
    }

    /// Add a control-flow edge within a diagram.
    pub fn add_edge(
        &mut self,
        diagram: DiagramId,
        from: ElementId,
        to: ElementId,
        guard: Option<String>,
    ) {
        assert!(
            diagram.0 < self.diagrams.len(),
            "unknown diagram {diagram:?}"
        );
        self.diagrams[diagram.0]
            .edges
            .push(Edge { from, to, guard });
    }

    /// Element by id.
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.0]
    }

    /// Mutable element by id.
    pub fn element_mut(&mut self, id: ElementId) -> &mut Element {
        &mut self.elements[id.0]
    }

    /// All elements in arena order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of elements across all diagrams.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Diagram by id.
    pub fn diagram(&self, id: DiagramId) -> &Diagram {
        &self.diagrams[id.0]
    }

    /// Find a diagram by name.
    pub fn diagram_by_name(&self, name: &str) -> Option<&Diagram> {
        self.diagrams.iter().find(|d| d.name == name)
    }

    /// Find an element by name (first match across diagrams).
    pub fn element_by_name(&self, name: &str) -> Option<&Element> {
        self.elements.iter().find(|e| e.name == name)
    }

    /// Declare a variable.
    pub fn add_variable(&mut self, v: Variable) {
        self.variables.push(v);
    }

    /// Declare a cost function.
    pub fn add_function(&mut self, f: FunctionDecl) {
        self.functions.push(f);
    }

    /// Global variables in declaration order.
    pub fn globals(&self) -> impl Iterator<Item = &Variable> {
        self.variables
            .iter()
            .filter(|v| v.scope == VarScope::Global)
    }

    /// Local variables in declaration order.
    pub fn locals(&self) -> impl Iterator<Item = &Variable> {
        self.variables.iter().filter(|v| v.scope == VarScope::Local)
    }

    /// Performance-relevant elements across all diagrams, in diagram-then-
    /// creation order — exactly the `perf_elements` set built by lines 1–8
    /// of the Figure-5 algorithm.
    pub fn performance_elements(&self) -> Vec<ElementId> {
        let mut out = Vec::new();
        for d in &self.diagrams {
            for &nid in &d.nodes {
                if self.element(nid).is_performance_element() {
                    out.push(nid);
                }
            }
        }
        out
    }

    /// The initial node of a diagram, if unique.
    pub fn initial_of(&self, diagram: DiagramId) -> Option<ElementId> {
        let mut found = None;
        for &nid in &self.diagrams[diagram.0].nodes {
            if self.element(nid).kind == NodeKind::Initial {
                if found.is_some() {
                    return None;
                }
                found = Some(nid);
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{StereotypeApplication, TagValue};

    fn action_plus(cost: &str) -> StereotypeApplication {
        StereotypeApplication::new("action+").with("cost", TagValue::Expr(cost.into()))
    }

    #[test]
    fn build_simple_model() {
        let mut m = Model::new("demo");
        let main = m.main_diagram();
        let init = m.add_element(main, "start", NodeKind::Initial, None);
        let a1 = m.add_element(main, "A1", NodeKind::Action, Some(action_plus("FA1()")));
        let fin = m.add_element(main, "end", NodeKind::ActivityFinal, None);
        m.add_edge(main, init, a1, None);
        m.add_edge(main, a1, fin, None);

        assert_eq!(m.element_count(), 3);
        assert_eq!(m.element(a1).cost_expr(), Some("FA1()"));
        assert_eq!(m.performance_elements(), vec![a1]);
        assert_eq!(m.initial_of(main), Some(init));
    }

    #[test]
    fn nested_diagram_via_call_activity() {
        let mut m = Model::new("nested");
        let main = m.main_diagram();
        let sub = m.add_diagram("SA");
        let sa = m.add_element(
            main,
            "SA",
            NodeKind::CallActivity(sub),
            Some(StereotypeApplication::new("activity+")),
        );
        let sa1 = m.add_element(sub, "SA1", NodeKind::Action, Some(action_plus("FSA1()")));
        assert_eq!(m.element(sa).diagram, main);
        assert_eq!(m.element(sa1).diagram, sub);
        match m.element(sa).kind {
            NodeKind::CallActivity(d) => assert_eq!(d, sub),
            _ => panic!("wrong kind"),
        }
        assert_eq!(m.diagram_by_name("SA").unwrap().id, sub);
    }

    #[test]
    fn perf_elements_ordered_by_diagram_then_creation() {
        let mut m = Model::new("order");
        let main = m.main_diagram();
        let sub = m.add_diagram("sub");
        // Create sub element first in arena order but it must come second
        // because its diagram is later.
        let s1 = m.add_element(sub, "S1", NodeKind::Action, Some(action_plus("1")));
        let a1 = m.add_element(main, "A1", NodeKind::Action, Some(action_plus("1")));
        let a2 = m.add_element(main, "A2", NodeKind::Action, Some(action_plus("1")));
        assert_eq!(m.performance_elements(), vec![a1, a2, s1]);
    }

    #[test]
    fn non_stereotyped_elements_not_performance_relevant() {
        let mut m = Model::new("plain");
        let main = m.main_diagram();
        m.add_element(main, "start", NodeKind::Initial, None);
        m.add_element(main, "dec", NodeKind::Decision, None);
        assert!(m.performance_elements().is_empty());
    }

    #[test]
    fn edges_and_guards() {
        let mut m = Model::new("guards");
        let main = m.main_diagram();
        let d = m.add_element(main, "dec", NodeKind::Decision, None);
        let a = m.add_element(main, "A", NodeKind::Action, None);
        let b = m.add_element(main, "B", NodeKind::Action, None);
        m.add_edge(main, d, a, Some("GV > 0".into()));
        m.add_edge(main, d, b, Some("else".into()));
        let dg = m.diagram(main);
        let outs: Vec<_> = dg.outgoing(d).collect();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].guard.as_deref(), Some("GV > 0"));
        assert_eq!(dg.incoming(a).count(), 1);
    }

    #[test]
    fn duplicate_initials_detected() {
        let mut m = Model::new("twoinit");
        let main = m.main_diagram();
        m.add_element(main, "i1", NodeKind::Initial, None);
        m.add_element(main, "i2", NodeKind::Initial, None);
        assert_eq!(m.initial_of(main), None);
    }

    #[test]
    fn variables_partition_by_scope() {
        let mut m = Model::new("vars");
        m.add_variable(Variable {
            name: "GV".into(),
            var_type: VarType::Int,
            scope: VarScope::Global,
            init: Some("0".into()),
        });
        m.add_variable(Variable {
            name: "t".into(),
            var_type: VarType::Double,
            scope: VarScope::Local,
            init: None,
        });
        assert_eq!(m.globals().count(), 1);
        assert_eq!(m.locals().count(), 1);
        assert_eq!(m.globals().next().unwrap().var_type.name(), "int");
    }

    #[test]
    fn mpi_stereotypes_are_performance_relevant() {
        let mut m = Model::new("mpi");
        let main = m.main_diagram();
        let send = m.add_element(
            main,
            "s0",
            NodeKind::Action,
            Some(StereotypeApplication::new("send").with("dest", TagValue::Expr("1".into()))),
        );
        assert!(m.element(send).is_performance_element());
    }
}
