//! Structured control-flow recovery from activity-diagram graphs.
//!
//! The Figure-5 algorithm emits C++ whose statement order follows "the
//! specified flow in the UML model"; decision nodes become `if-else-if`
//! chains (Figure 8(b) lines 77–87) and composite activities become
//! nested blocks (lines 79–82). This module recovers that structure from
//! the edge list:
//!
//! * a **linear chain** of actions → [`FlowNode::Seq`],
//! * **decision → arms → merge** → [`FlowNode::Branch`],
//! * **fork → arms → join** → [`FlowNode::Parallel`],
//! * a composite element → [`FlowNode::Composite`] over its body diagram.
//!
//! Cyclic graphs are rejected (the checker's PP011 directs modelers to
//! `<<loop+>>`), as are decision arms that do not reconverge on a single
//! merge node.

use prophet_uml::{DiagramId, ElementId, Model, NodeKind};

/// A structured flow tree.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowNode {
    /// Execute one performance element (action or MPI block).
    Exec(ElementId),
    /// Sequential composition.
    Seq(Vec<FlowNode>),
    /// Guarded alternatives out of a decision node. `None` guard = `else`.
    Branch(Vec<(Option<String>, FlowNode)>),
    /// Concurrent arms between a fork and its join.
    Parallel(Vec<FlowNode>),
    /// A composite element (`<<activity+>>`, `<<loop+>>`,
    /// `<<parallel+>>`, `<<critical+>>`) and its body flow.
    Composite {
        /// The composite element.
        element: ElementId,
        /// Flow of the body diagram.
        body: Box<FlowNode>,
    },
    /// Nothing (empty arm).
    Empty,
}

impl FlowNode {
    /// Number of `Exec` leaves (for tests and metrics).
    pub fn exec_count(&self) -> usize {
        match self {
            FlowNode::Exec(_) => 1,
            FlowNode::Seq(items) => items.iter().map(FlowNode::exec_count).sum(),
            FlowNode::Branch(arms) => arms.iter().map(|(_, f)| f.exec_count()).sum(),
            FlowNode::Parallel(arms) => arms.iter().map(FlowNode::exec_count).sum(),
            FlowNode::Composite { body, .. } => body.exec_count(),
            FlowNode::Empty => 0,
        }
    }
}

/// Build the flow tree of `diagram`, recursing into composite bodies.
///
/// # Errors
/// Reports malformed graphs with element names (no panics on user data),
/// including a composite whose body (transitively) contains it.
pub fn build_flow_tree(model: &Model, diagram: DiagramId) -> Result<FlowNode, String> {
    build_nested(model, diagram, &mut Vec::new())
}

/// [`build_flow_tree`] inside the composite bodies `open` (outermost
/// first).
fn build_nested(
    model: &Model,
    diagram: DiagramId,
    open: &mut Vec<DiagramId>,
) -> Result<FlowNode, String> {
    let entry = entry_of(model, diagram)?;
    open.push(diagram);
    let mut builder = FlowBuilder {
        model,
        diagram,
        open,
        steps: 0,
    };
    let (flow, stopped_at) = builder.walk_chain(entry, &[])?;
    open.pop();
    if let Some(stop) = stopped_at {
        return Err(format!(
            "flow of diagram `{}` stopped unexpectedly at `{}`",
            model.diagram(diagram).name,
            model.element(stop).name
        ));
    }
    Ok(flow)
}

/// Entry node: the initial node, or the unique node without incoming
/// edges (sub-diagrams like the paper's `SA` omit the initial node).
fn entry_of(model: &Model, diagram: DiagramId) -> Result<ElementId, String> {
    let d = model.diagram(diagram);
    let initials: Vec<_> = d
        .nodes
        .iter()
        .copied()
        .filter(|&n| model.element(n).kind == NodeKind::Initial)
        .collect();
    if initials.len() == 1 {
        return Ok(initials[0]);
    }
    if initials.len() > 1 {
        return Err(format!(
            "diagram `{}` has {} initial nodes",
            d.name,
            initials.len()
        ));
    }
    let starts: Vec<_> = d
        .nodes
        .iter()
        .copied()
        .filter(|&n| d.incoming(n).next().is_none())
        .collect();
    match starts.as_slice() {
        [one] => Ok(*one),
        [] => Err(format!("diagram `{}` has no entry node", d.name)),
        many => Err(format!(
            "diagram `{}` has {} possible entry nodes; add an initial node",
            d.name,
            many.len()
        )),
    }
}

struct FlowBuilder<'a> {
    model: &'a Model,
    diagram: DiagramId,
    /// Diagrams whose flow is being built, this one last.
    open: &'a mut Vec<DiagramId>,
    steps: usize,
}

impl<'a> FlowBuilder<'a> {
    fn name(&self, id: ElementId) -> &str {
        &self.model.element(id).name
    }

    fn successors(&self, id: ElementId) -> Vec<(Option<String>, ElementId)> {
        self.model
            .diagram(self.diagram)
            .outgoing(id)
            .map(|e| (e.guard.clone(), e.to))
            .collect()
    }

    fn guard_steps(&mut self) -> Result<(), String> {
        self.steps += 1;
        if self.steps > 100_000 {
            return Err(format!(
                "flow recovery exceeded 100000 steps in diagram `{}` — is the graph cyclic?",
                self.model.diagram(self.diagram).name
            ));
        }
        Ok(())
    }

    /// Walk a chain starting at `at` until a final node, a dead end, or
    /// any node in `stop_at` (used for decision/fork arms). Returns the
    /// flow and the stop node reached (if it was in `stop_at`).
    fn walk_chain(
        &mut self,
        mut at: ElementId,
        stop_at: &[ElementId],
    ) -> Result<(FlowNode, Option<ElementId>), String> {
        let mut items: Vec<FlowNode> = Vec::new();
        loop {
            self.guard_steps()?;
            if stop_at.contains(&at) {
                return Ok((seq_of(items), Some(at)));
            }
            let el = self.model.element(at);
            match el.kind {
                NodeKind::Initial => {
                    // Fall through to the single successor.
                }
                NodeKind::ActivityFinal | NodeKind::FlowFinal => {
                    return Ok((seq_of(items), None));
                }
                NodeKind::Action => {
                    items.push(FlowNode::Exec(at));
                }
                NodeKind::CallActivity(sub) => {
                    if self.open.contains(&sub) {
                        return Err(format!(
                            "composite `{}` calls diagram `{}`, which contains it",
                            el.name,
                            self.model.diagram(sub).name
                        ));
                    }
                    let body = build_nested(self.model, sub, self.open)?;
                    items.push(FlowNode::Composite {
                        element: at,
                        body: Box::new(body),
                    });
                }
                NodeKind::Merge => {
                    // A merge reached outside of a decision arm is just a
                    // pass-through (its arms were already folded).
                }
                NodeKind::Decision => {
                    let (branch, after) = self.walk_decision(at)?;
                    items.push(branch);
                    match after {
                        Some(next) => {
                            at = next;
                            continue;
                        }
                        None => return Ok((seq_of(items), None)),
                    }
                }
                NodeKind::Fork => {
                    let (par, after) = self.walk_fork(at)?;
                    items.push(par);
                    match after {
                        Some(next) => {
                            at = next;
                            continue;
                        }
                        None => return Ok((seq_of(items), None)),
                    }
                }
                NodeKind::Join => {
                    return Err(format!(
                        "join `{}` reached without a matching fork",
                        self.name(at)
                    ));
                }
            }
            // Advance along the unique unguarded successor.
            let succ = self.successors(at);
            match succ.as_slice() {
                [] => return Ok((seq_of(items), None)),
                [(None, next)] => at = *next,
                [(Some(g), _)] => {
                    return Err(format!(
                        "edge out of `{}` has guard `{g}` but `{}` is not a decision node",
                        self.name(at),
                        self.name(at)
                    ))
                }
                _ => {
                    return Err(format!(
                        "`{}` has multiple outgoing edges but is not a decision or fork",
                        self.name(at)
                    ))
                }
            }
        }
    }

    /// Decision: each outgoing guarded edge starts an arm; all arms must
    /// reach the same merge node (or all terminate). Returns the branch
    /// node and the node after the merge.
    fn walk_decision(&mut self, dec: ElementId) -> Result<(FlowNode, Option<ElementId>), String> {
        let succ = self.successors(dec);
        if succ.len() < 2 {
            return Err(format!(
                "decision `{}` has {} outgoing edge(s)",
                self.name(dec),
                succ.len()
            ));
        }
        // Candidate merge nodes of this diagram.
        let merges: Vec<ElementId> = self
            .model
            .diagram(self.diagram)
            .nodes
            .iter()
            .copied()
            .filter(|&n| self.model.element(n).kind == NodeKind::Merge)
            .collect();

        let mut arms = Vec::new();
        let mut seen_merge: Option<ElementId> = None;
        let mut any_terminated = false;
        for (guard, target) in succ {
            let (flow, stopped) = self.walk_chain(target, &merges)?;
            match stopped {
                Some(m) => {
                    if let Some(prev) = seen_merge {
                        if prev != m {
                            return Err(format!(
                                "arms of decision `{}` reconverge on different merges (`{}` vs `{}`)",
                                self.name(dec),
                                self.name(prev),
                                self.name(m)
                            ));
                        }
                    }
                    seen_merge = Some(m);
                }
                None => any_terminated = true,
            }
            let guard = match guard.as_deref() {
                Some("else") | None => None,
                Some(g) => Some(g.to_string()),
            };
            arms.push((guard, flow));
        }
        // `else`/unguarded arms last, preserving relative order — the C++
        // else-branch must come last in the chain.
        arms.sort_by_key(|(g, _)| g.is_none());
        let branch = FlowNode::Branch(arms);
        match seen_merge {
            Some(m) => {
                if any_terminated {
                    // Mixed termination is fine: merge continues the flow.
                }
                let after = self.successors(m);
                match after.as_slice() {
                    [] => Ok((branch, None)),
                    [(None, next)] => Ok((branch, Some(*next))),
                    _ => Err(format!(
                        "merge `{}` must have exactly one unguarded outgoing edge",
                        self.name(m)
                    )),
                }
            }
            None => Ok((branch, None)),
        }
    }

    /// Fork: arms run until the matching join.
    fn walk_fork(&mut self, fork: ElementId) -> Result<(FlowNode, Option<ElementId>), String> {
        let succ = self.successors(fork);
        if succ.len() < 2 {
            return Err(format!(
                "fork `{}` has fewer than 2 outgoing edges",
                self.name(fork)
            ));
        }
        let joins: Vec<ElementId> = self
            .model
            .diagram(self.diagram)
            .nodes
            .iter()
            .copied()
            .filter(|&n| self.model.element(n).kind == NodeKind::Join)
            .collect();
        let mut arms = Vec::new();
        let mut seen_join: Option<ElementId> = None;
        for (guard, target) in succ {
            if guard.is_some() {
                return Err(format!(
                    "edges out of fork `{}` must be unguarded",
                    self.name(fork)
                ));
            }
            let (flow, stopped) = self.walk_chain(target, &joins)?;
            let Some(j) = stopped else {
                return Err(format!(
                    "an arm of fork `{}` never reaches a join",
                    self.name(fork)
                ));
            };
            if let Some(prev) = seen_join {
                if prev != j {
                    return Err(format!(
                        "arms of fork `{}` join at different nodes (`{}` vs `{}`)",
                        self.name(fork),
                        self.name(prev),
                        self.name(j)
                    ));
                }
            }
            seen_join = Some(j);
            arms.push(flow);
        }
        let join = seen_join.expect("at least one arm");
        let after = self.successors(join);
        match after.as_slice() {
            [] => Ok((FlowNode::Parallel(arms), None)),
            [(None, next)] => Ok((FlowNode::Parallel(arms), Some(*next))),
            _ => Err(format!(
                "join `{}` must have exactly one unguarded outgoing edge",
                self.name(join)
            )),
        }
    }
}

fn seq_of(mut items: Vec<FlowNode>) -> FlowNode {
    match items.len() {
        0 => FlowNode::Empty,
        1 => items.pop().expect("one item"),
        _ => FlowNode::Seq(items),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_uml::ModelBuilder;

    #[test]
    fn linear_chain() {
        let mut b = ModelBuilder::new("lin");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A", "1");
        let c = b.action(main, "B", "1");
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, c);
        b.flow(main, c, f);
        let m = b.build();
        let flow = build_flow_tree(&m, m.main_diagram()).unwrap();
        match &flow {
            FlowNode::Seq(items) => {
                assert_eq!(items.len(), 2);
                assert!(matches!(items[0], FlowNode::Exec(_)));
            }
            other => panic!("expected Seq, got {other:?}"),
        }
        assert_eq!(flow.exec_count(), 2);
    }

    #[test]
    fn decision_merge_recovers_branch() {
        let mut b = ModelBuilder::new("dec");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a1 = b.action(main, "A1", "1");
        let d = b.decision(main, "dec");
        let sa = b.action(main, "SAish", "1");
        let a2 = b.action(main, "A2", "1");
        let mg = b.merge(main, "merge");
        let a4 = b.action(main, "A4", "1");
        let f = b.final_node(main, "end");
        b.flow(main, i, a1);
        b.flow(main, a1, d);
        b.guarded_flow(main, d, sa, "GV == 1");
        b.guarded_flow(main, d, a2, "else");
        b.flow(main, sa, mg);
        b.flow(main, a2, mg);
        b.flow(main, mg, a4);
        b.flow(main, a4, f);
        let m = b.build();
        let flow = build_flow_tree(&m, m.main_diagram()).unwrap();
        let FlowNode::Seq(items) = &flow else {
            panic!("{flow:?}")
        };
        assert_eq!(items.len(), 3); // A1, Branch, A4
        let FlowNode::Branch(arms) = &items[1] else {
            panic!("{items:?}")
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].0.as_deref(), Some("GV == 1"));
        assert_eq!(arms[1].0, None); // else arm last
    }

    #[test]
    fn else_arm_sorted_last() {
        let mut b = ModelBuilder::new("order");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let d = b.decision(main, "dec");
        let x = b.action(main, "X", "1");
        let y = b.action(main, "Y", "1");
        let mg = b.merge(main, "merge");
        let f = b.final_node(main, "end");
        b.flow(main, i, d);
        b.guarded_flow(main, d, x, "else"); // else listed FIRST in the model
        b.guarded_flow(main, d, y, "GV > 0");
        b.flow(main, x, mg);
        b.flow(main, y, mg);
        b.flow(main, mg, f);
        let m = b.build();
        let flow = build_flow_tree(&m, m.main_diagram()).unwrap();
        let FlowNode::Branch(arms) = &flow else {
            panic!("{flow:?}")
        };
        assert_eq!(arms[0].0.as_deref(), Some("GV > 0"));
        assert_eq!(arms[1].0, None);
    }

    #[test]
    fn composite_recurses() {
        let mut b = ModelBuilder::new("comp");
        let main = b.main_diagram();
        let sub = b.diagram("SA");
        let i = b.initial(main, "start");
        let sa = b.call_activity(main, "SA", sub);
        let f = b.final_node(main, "end");
        b.flow(main, i, sa);
        b.flow(main, sa, f);
        let s1 = b.action(sub, "SA1", "1");
        let s2 = b.action(sub, "SA2", "1");
        b.flow(sub, s1, s2);
        let m = b.build();
        let flow = build_flow_tree(&m, m.main_diagram()).unwrap();
        let FlowNode::Composite { body, .. } = &flow else {
            panic!("{flow:?}")
        };
        assert_eq!(body.exec_count(), 2);
    }

    #[test]
    fn fork_join_recovers_parallel() {
        let mut b = ModelBuilder::new("fj");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let fk = b.fork(main, "fork");
        let x = b.action(main, "X", "1");
        let y = b.action(main, "Y", "1");
        let jn = b.join(main, "join");
        let f = b.final_node(main, "end");
        b.flow(main, i, fk);
        b.flow(main, fk, x);
        b.flow(main, fk, y);
        b.flow(main, x, jn);
        b.flow(main, y, jn);
        b.flow(main, jn, f);
        let m = b.build();
        let flow = build_flow_tree(&m, m.main_diagram()).unwrap();
        let FlowNode::Parallel(arms) = &flow else {
            panic!("{flow:?}")
        };
        assert_eq!(arms.len(), 2);
    }

    #[test]
    fn cyclic_graph_rejected() {
        let mut b = ModelBuilder::new("cyc");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A", "1");
        let c = b.action(main, "B", "1");
        b.flow(main, i, a);
        b.flow(main, a, c);
        b.flow(main, c, a);
        let m = b.build();
        let err = build_flow_tree(&m, m.main_diagram()).unwrap_err();
        assert!(err.contains("cyclic"), "{err}");
    }

    #[test]
    fn nesting_cycle_rejected() {
        let mut b = ModelBuilder::new("cyc");
        let main = b.main_diagram();
        let body = b.diagram("Body");
        let i = b.initial(main, "start");
        let outer = b.call_activity(main, "Outer", body);
        b.flow(main, i, outer);
        b.call_activity(body, "Back", main);
        let m = b.build();
        let err = build_flow_tree(&m, m.main_diagram()).unwrap_err();
        assert_eq!(
            err,
            "composite `Back` calls diagram `main`, which contains it"
        );
    }

    #[test]
    fn mismatched_merges_rejected() {
        let mut b = ModelBuilder::new("mm");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let d = b.decision(main, "dec");
        let x = b.action(main, "X", "1");
        let y = b.action(main, "Y", "1");
        let m1 = b.merge(main, "m1");
        let m2 = b.merge(main, "m2");
        let f = b.final_node(main, "end");
        b.flow(main, i, d);
        b.guarded_flow(main, d, x, "GV > 0");
        b.guarded_flow(main, d, y, "else");
        b.flow(main, x, m1);
        b.flow(main, y, m2);
        b.flow(main, m1, f);
        b.flow(main, m2, f);
        let m = b.build();
        let err = build_flow_tree(&m, m.main_diagram()).unwrap_err();
        assert!(err.contains("different merges"), "{err}");
    }

    #[test]
    fn dangling_join_rejected() {
        let mut b = ModelBuilder::new("dj");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let j = b.join(main, "join");
        b.flow(main, i, j);
        let m = b.build();
        let err = build_flow_tree(&m, m.main_diagram()).unwrap_err();
        assert!(err.contains("without a matching fork"), "{err}");
    }

    #[test]
    fn multiple_unguarded_successors_rejected() {
        let mut b = ModelBuilder::new("amb");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A", "1");
        let x = b.action(main, "X", "1");
        let y = b.action(main, "Y", "1");
        b.flow(main, i, a);
        b.flow(main, a, x);
        b.flow(main, a, y);
        let m = b.build();
        let err = build_flow_tree(&m, m.main_diagram()).unwrap_err();
        assert!(err.contains("multiple outgoing"), "{err}");
    }

    #[test]
    fn empty_arm_through_merge() {
        // One decision arm goes straight to the merge (skip pattern).
        let mut b = ModelBuilder::new("skip");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let d = b.decision(main, "dec");
        let x = b.action(main, "X", "1");
        let mg = b.merge(main, "merge");
        let f = b.final_node(main, "end");
        b.flow(main, i, d);
        b.guarded_flow(main, d, x, "GV > 0");
        b.guarded_flow(main, d, mg, "else");
        b.flow(main, x, mg);
        b.flow(main, mg, f);
        let m = b.build();
        let flow = build_flow_tree(&m, m.main_diagram()).unwrap();
        let FlowNode::Branch(arms) = &flow else {
            panic!("{flow:?}")
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[1].1, FlowNode::Empty);
    }
}
