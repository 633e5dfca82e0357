//! The Figure-6 model traverser: `Traverser`, `Navigator`,
//! `ContentHandler`.
//!
//! The paper (Section 3, Figure 6) describes model traversal as three
//! entities communicating only through well-defined interfaces:
//!
//! 1. the **Traverser** sends a *navigation command* to the **Navigator**;
//! 2. the Traverser obtains the *current element* `ce` from the Navigator;
//! 3. the Traverser asks the **ContentHandler** to *visit* `ce` and
//!    generate the corresponding code.
//!
//! "Each implementation of one of these components can be combined with
//! any implementation of the other two" — so both roles are traits here:
//! [`Navigator`] (with an explicit-stack implementation and a recursive
//! one, ablation A2) and [`ContentHandler`] (implemented by the XML
//! emitter, the C++ emitter in prophet-codegen, and test recorders).
//! The optional [`TraceMessage`] log lets tests assert the exact Figure-6
//! message sequence.

use crate::model::{DiagramId, ElementId, Model, NodeKind};

/// Whether a visit is entering or leaving a (possibly composite) element.
///
/// Composite `<<activity+>>` elements contain nested diagrams; handlers
/// that generate nested C++ blocks need both phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitPhase {
    /// Before the element's children (if any) are visited.
    Enter,
    /// After the element's children are visited. Leaf elements get both
    /// phases back-to-back.
    Leave,
}

/// The receiving side of a traversal: generates a model representation.
pub trait ContentHandler {
    /// Called once before any element.
    fn begin_model(&mut self, _model: &Model) {}
    /// Called entering a diagram (the main diagram or a composite's body).
    fn begin_diagram(&mut self, _model: &Model, _diagram: DiagramId) {}
    /// Visit one element.
    fn visit_element(&mut self, model: &Model, element: ElementId, phase: VisitPhase);
    /// Called leaving a diagram.
    fn end_diagram(&mut self, _model: &Model, _diagram: DiagramId) {}
    /// Called once after all elements.
    fn end_model(&mut self, _model: &Model) {}
}

/// One step produced by a [`Navigator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NavStep {
    /// Entering a diagram.
    EnterDiagram(DiagramId),
    /// An element visit (with phase).
    Element(ElementId, VisitPhase),
    /// Leaving a diagram.
    LeaveDiagram(DiagramId),
    /// Traversal finished.
    Done,
}

/// The navigation side of a traversal: yields the current element on
/// demand.
pub trait Navigator {
    /// Advance to the next step ("navigationCommand()" in Figure 6) and
    /// return it ("getCurrentElement()").
    fn next_step(&mut self, model: &Model) -> NavStep;
}

/// Iterative navigator using an explicit work stack (production default).
///
/// Order: for each diagram, elements in creation order; composite
/// elements (`CallActivity`) recurse into their body diagram between their
/// `Enter` and `Leave` phases. This is the tree walk of Figure 5.
///
/// Each diagram is entered at most once per traversal: a composite whose
/// body was already entered — a body shared by two composites, or a
/// nesting cycle back into an open diagram — gets its two phases without
/// the body. The walk therefore terminates on every model, in time
/// linear in its size.
pub struct ExplicitStackNavigator {
    stack: Vec<Frame>,
    started: bool,
    root: DiagramId,
    entered: Vec<bool>,
}

enum Frame {
    Diagram {
        id: DiagramId,
        next: usize,
        opened: bool,
    },
    Leave(ElementId),
}

impl ExplicitStackNavigator {
    /// Traverse starting from `root` (usually the main diagram).
    pub fn new(root: DiagramId) -> Self {
        Self {
            stack: Vec::new(),
            started: false,
            root,
            entered: Vec::new(),
        }
    }
}

/// Mark `d` entered; false if it already was.
fn first_entry(entered: &mut Vec<bool>, d: DiagramId) -> bool {
    if entered.len() <= d.0 {
        entered.resize(d.0 + 1, false);
    }
    !std::mem::replace(&mut entered[d.0], true)
}

impl Navigator for ExplicitStackNavigator {
    fn next_step(&mut self, model: &Model) -> NavStep {
        if !self.started {
            self.started = true;
            first_entry(&mut self.entered, self.root);
            self.stack.push(Frame::Diagram {
                id: self.root,
                next: 0,
                opened: false,
            });
        }
        match self.stack.last_mut() {
            None => NavStep::Done,
            Some(Frame::Leave(eid)) => {
                let eid = *eid;
                self.stack.pop();
                NavStep::Element(eid, VisitPhase::Leave)
            }
            Some(Frame::Diagram { id, next, opened }) => {
                let did = *id;
                if !*opened {
                    *opened = true;
                    return NavStep::EnterDiagram(did);
                }
                let nodes = &model.diagram(did).nodes;
                if *next >= nodes.len() {
                    self.stack.pop();
                    return NavStep::LeaveDiagram(did);
                }
                let eid = nodes[*next];
                *next += 1;
                // The Leave phase fires after this element's subtree; a
                // composite additionally pushes its body diagram so that
                // the body is visited between the two phases.
                self.stack.push(Frame::Leave(eid));
                if let NodeKind::CallActivity(sub) = model.element(eid).kind {
                    if first_entry(&mut self.entered, sub) {
                        self.stack.push(Frame::Diagram {
                            id: sub,
                            next: 0,
                            opened: false,
                        });
                    }
                }
                NavStep::Element(eid, VisitPhase::Enter)
            }
        }
    }
}

/// Recursive walk (ablation A2): produces the same step sequence as
/// [`ExplicitStackNavigator`] by materializing it eagerly with recursion,
/// then replaying.
pub struct RecursiveWalk {
    steps: std::vec::IntoIter<NavStep>,
}

impl RecursiveWalk {
    /// Build the full step list for `root` recursively.
    pub fn new(model: &Model, root: DiagramId) -> Self {
        let mut steps = Vec::new();
        fn walk(model: &Model, d: DiagramId, entered: &mut Vec<bool>, out: &mut Vec<NavStep>) {
            out.push(NavStep::EnterDiagram(d));
            for &eid in &model.diagram(d).nodes {
                out.push(NavStep::Element(eid, VisitPhase::Enter));
                if let NodeKind::CallActivity(sub) = model.element(eid).kind {
                    if first_entry(entered, sub) {
                        walk(model, sub, entered, out);
                    }
                }
                out.push(NavStep::Element(eid, VisitPhase::Leave));
            }
            out.push(NavStep::LeaveDiagram(d));
        }
        let mut entered = Vec::new();
        first_entry(&mut entered, root);
        walk(model, root, &mut entered, &mut steps);
        steps.push(NavStep::Done);
        Self {
            steps: steps.into_iter(),
        }
    }
}

impl Navigator for RecursiveWalk {
    fn next_step(&mut self, _model: &Model) -> NavStep {
        self.steps.next().unwrap_or(NavStep::Done)
    }
}

/// One message of the Figure-6 communication diagram, for protocol tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMessage {
    /// Traverser → Navigator.
    NavigationCommand,
    /// Navigator → Traverser (the current element's name, or a marker).
    GetCurrentElement(String),
    /// Traverser → ContentHandler.
    VisitElement(String),
}

/// The driving side: pulls steps from a navigator and forwards visits to a
/// content handler, optionally recording the message protocol.
pub struct Traverser {
    /// Recorded Figure-6 messages (empty unless `record_protocol`).
    pub protocol: Vec<TraceMessage>,
    record_protocol: bool,
}

impl Default for Traverser {
    fn default() -> Self {
        Self::new()
    }
}

impl Traverser {
    /// A traverser that does not record the protocol.
    pub fn new() -> Self {
        Self {
            protocol: Vec::new(),
            record_protocol: false,
        }
    }

    /// A traverser that records every Figure-6 message.
    pub fn recording() -> Self {
        Self {
            protocol: Vec::new(),
            record_protocol: true,
        }
    }

    /// Drive `navigator` over `model`, forwarding to `handler`.
    /// Returns the number of element visits (both phases).
    pub fn traverse(
        &mut self,
        model: &Model,
        navigator: &mut dyn Navigator,
        handler: &mut dyn ContentHandler,
    ) -> usize {
        handler.begin_model(model);
        let mut visits = 0;
        loop {
            if self.record_protocol {
                self.protocol.push(TraceMessage::NavigationCommand);
            }
            let step = navigator.next_step(model);
            match step {
                NavStep::Done => break,
                NavStep::EnterDiagram(d) => {
                    if self.record_protocol {
                        self.protocol.push(TraceMessage::GetCurrentElement(format!(
                            "diagram:{}",
                            model.diagram(d).name
                        )));
                    }
                    handler.begin_diagram(model, d);
                }
                NavStep::LeaveDiagram(d) => {
                    if self.record_protocol {
                        self.protocol.push(TraceMessage::GetCurrentElement(format!(
                            "/diagram:{}",
                            model.diagram(d).name
                        )));
                    }
                    handler.end_diagram(model, d);
                }
                NavStep::Element(eid, phase) => {
                    let name = model.element(eid).name.clone();
                    if self.record_protocol {
                        self.protocol
                            .push(TraceMessage::GetCurrentElement(name.clone()));
                        self.protocol.push(TraceMessage::VisitElement(name));
                    }
                    handler.visit_element(model, eid, phase);
                    visits += 1;
                }
            }
        }
        handler.end_model(model);
        visits
    }
}

/// A [`ContentHandler`] that records visited element names (testing and
/// diagnostics).
#[derive(Debug, Default)]
pub struct RecordingHandler {
    /// `(name, phase)` pairs in visit order.
    pub visits: Vec<(String, VisitPhase)>,
    /// Diagram names entered, in order.
    pub diagrams: Vec<String>,
}

impl ContentHandler for RecordingHandler {
    fn begin_diagram(&mut self, model: &Model, diagram: DiagramId) {
        self.diagrams.push(model.diagram(diagram).name.clone());
    }

    fn visit_element(&mut self, model: &Model, element: ElementId, phase: VisitPhase) {
        self.visits
            .push((model.element(element).name.clone(), phase));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;

    /// The Figure-7 sample model shape: main = init → A1 → dec → {SA | A2}
    /// → merge → A4 → final; SA = {SA1 → SA2}.
    fn sample_like_model() -> Model {
        let mut b = ModelBuilder::new("sample");
        let main = b.main_diagram();
        let sub = b.diagram("SA");
        let i = b.initial(main, "start");
        let a1 = b.action(main, "A1", "FA1()");
        let dec = b.decision(main, "dec");
        let sa = b.call_activity(main, "SA", sub);
        let a2 = b.action(main, "A2", "FA2()");
        let mrg = b.merge(main, "merge");
        let a4 = b.action(main, "A4", "FA4()");
        let f = b.final_node(main, "end");
        b.flow(main, i, a1);
        b.flow(main, a1, dec);
        b.guarded_flow(main, dec, sa, "GV == 1");
        b.guarded_flow(main, dec, a2, "else");
        b.flow(main, sa, mrg);
        b.flow(main, a2, mrg);
        b.flow(main, mrg, a4);
        b.flow(main, a4, f);
        let sa1 = b.action(sub, "SA1", "FSA1()");
        let sa2 = b.action(sub, "SA2", "FSA2(pid)");
        b.flow(sub, sa1, sa2);
        b.build()
    }

    #[test]
    fn explicit_stack_visits_nested_elements() {
        let m = sample_like_model();
        let mut nav = ExplicitStackNavigator::new(m.main_diagram());
        let mut handler = RecordingHandler::default();
        let mut t = Traverser::new();
        let visits = t.traverse(&m, &mut nav, &mut handler);
        // 8 main elements + 2 sub elements, two phases each.
        assert_eq!(visits, 20);
        // SA's children are visited between SA's Enter and Leave.
        let names: Vec<_> = handler
            .visits
            .iter()
            .map(|(n, p)| format!("{n}:{p:?}"))
            .collect();
        let sa_enter = names.iter().position(|s| s == "SA:Enter").unwrap();
        let sa_leave = names.iter().position(|s| s == "SA:Leave").unwrap();
        let sa1 = names.iter().position(|s| s == "SA1:Enter").unwrap();
        assert!(sa_enter < sa1 && sa1 < sa_leave);
        assert_eq!(handler.diagrams, vec!["main", "SA"]);
    }

    #[test]
    fn shared_and_cyclic_bodies_are_entered_once() {
        // main: First and Second call Body; Body's Back calls main again.
        let mut b = ModelBuilder::new("loops");
        let main = b.main_diagram();
        let body = b.diagram("Body");
        b.call_activity(main, "First", body);
        b.call_activity(main, "Second", body);
        b.call_activity(body, "Back", main);
        let m = b.build();
        let run = |nav: &mut dyn Navigator| {
            let mut h = RecordingHandler::default();
            Traverser::new().traverse(&m, nav, &mut h);
            h
        };
        let a = run(&mut ExplicitStackNavigator::new(m.main_diagram()));
        let b = run(&mut RecursiveWalk::new(&m, m.main_diagram()));
        assert_eq!(a.diagrams, vec!["main", "Body"]);
        assert_eq!(a.diagrams, b.diagrams);
        assert_eq!(a.visits, b.visits);
        // Every element still gets both phases, once.
        assert_eq!(a.visits.len(), 6);
    }

    #[test]
    fn navigators_agree() {
        let m = sample_like_model();
        let run = |nav: &mut dyn Navigator| {
            let mut handler = RecordingHandler::default();
            Traverser::new().traverse(&m, nav, &mut handler);
            handler.visits
        };
        let a = run(&mut ExplicitStackNavigator::new(m.main_diagram()));
        let b = run(&mut RecursiveWalk::new(&m, m.main_diagram()));
        assert_eq!(a, b);
    }

    #[test]
    fn figure6_protocol_sequence() {
        // For every visited element the message order must be:
        // navigationCommand → getCurrentElement(ce) → visitElement(ce).
        let m = sample_like_model();
        let mut nav = ExplicitStackNavigator::new(m.main_diagram());
        let mut handler = RecordingHandler::default();
        let mut t = Traverser::recording();
        t.traverse(&m, &mut nav, &mut handler);

        let msgs = &t.protocol;
        assert!(!msgs.is_empty());
        let mut i = 0;
        let mut element_rounds = 0;
        while i < msgs.len() {
            assert_eq!(msgs[i], TraceMessage::NavigationCommand, "at {i}");
            if i + 1 >= msgs.len() {
                break; // final Done round has no current element
            }
            match &msgs[i + 1] {
                TraceMessage::GetCurrentElement(name)
                    if !name.starts_with("diagram:") && !name.starts_with("/diagram:") =>
                {
                    assert_eq!(
                        msgs[i + 2],
                        TraceMessage::VisitElement(name.clone()),
                        "visit must follow getCurrentElement for `{name}`"
                    );
                    element_rounds += 1;
                    i += 3;
                }
                TraceMessage::GetCurrentElement(_) => i += 2,
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert_eq!(element_rounds, 20);
    }

    #[test]
    fn empty_model_traversal() {
        let m = Model::new("empty");
        let mut nav = ExplicitStackNavigator::new(m.main_diagram());
        let mut handler = RecordingHandler::default();
        let visits = Traverser::new().traverse(&m, &mut nav, &mut handler);
        assert_eq!(visits, 0);
        assert_eq!(handler.diagrams, vec!["main"]);
    }

    #[test]
    fn deep_nesting() {
        // activity+ chains 20 levels deep must not blow the stack and must
        // nest correctly.
        let mut b = ModelBuilder::new("deep");
        let mut current = b.main_diagram();
        let mut composites = Vec::new();
        for i in 0..20 {
            let sub = b.diagram(&format!("L{i}"));
            composites.push(b.call_activity(current, &format!("C{i}"), sub));
            current = sub;
        }
        b.action(current, "leaf", "1");
        let m = b.build();
        let mut nav = ExplicitStackNavigator::new(m.main_diagram());
        let mut handler = RecordingHandler::default();
        let visits = Traverser::new().traverse(&m, &mut nav, &mut handler);
        assert_eq!(visits, 2 * 21); // 20 composites + leaf
                                    // First Leave seen must be the innermost (leaf).
        let first_leave = handler
            .visits
            .iter()
            .find(|(_, p)| *p == VisitPhase::Leave)
            .unwrap();
        assert_eq!(first_leave.0, "leaf");
    }
}
