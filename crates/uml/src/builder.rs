//! A fluent model-construction API — the programmatic stand-in for Teuta's
//! graphical drawing space.

use crate::model::{
    DiagramId, ElementId, FunctionDecl, Model, NodeKind, VarScope, VarType, Variable,
};
use crate::profile::{StereotypeApplication, TagValue};

/// Builder over a [`Model`], with one method per drawing-palette tool.
pub struct ModelBuilder {
    model: Model,
    next_auto_id: i64,
}

impl ModelBuilder {
    /// Start a model with the performance profile applied.
    pub fn new(name: &str) -> Self {
        Self {
            model: Model::new(name),
            next_auto_id: 1,
        }
    }

    /// The main diagram id.
    pub fn main_diagram(&self) -> DiagramId {
        self.model.main_diagram()
    }

    /// Create an additional diagram.
    pub fn diagram(&mut self, name: &str) -> DiagramId {
        self.model.add_diagram(name)
    }

    fn auto_id(&mut self) -> i64 {
        let id = self.next_auto_id;
        self.next_auto_id += 1;
        id
    }

    /// Add an initial node.
    pub fn initial(&mut self, diagram: DiagramId, name: &str) -> ElementId {
        self.model
            .add_element(diagram, name, NodeKind::Initial, None)
    }

    /// Add an activity-final node.
    pub fn final_node(&mut self, diagram: DiagramId, name: &str) -> ElementId {
        self.model
            .add_element(diagram, name, NodeKind::ActivityFinal, None)
    }

    /// Add an `<<action+>>` with a cost expression (the common case of
    /// Figures 3(c) and 7).
    pub fn action(&mut self, diagram: DiagramId, name: &str, cost: &str) -> ElementId {
        let id = self.auto_id();
        let st = StereotypeApplication::new("action+")
            .with("id", TagValue::Int(id))
            .with("cost", TagValue::Expr(cost.into()));
        self.model
            .add_element(diagram, name, NodeKind::Action, Some(st))
    }

    /// Add an `<<action+>>` with an explicit `time` tag instead of a cost
    /// function (Figure 1(b) style).
    pub fn timed_action(&mut self, diagram: DiagramId, name: &str, time: f64) -> ElementId {
        let id = self.auto_id();
        let st = StereotypeApplication::new("action+")
            .with("id", TagValue::Int(id))
            .with("time", TagValue::Num(time));
        self.model
            .add_element(diagram, name, NodeKind::Action, Some(st))
    }

    /// Attach a code fragment to an element (Figure 7(b)).
    pub fn attach_code(&mut self, element: ElementId, code: &str) {
        let el = self.model.element_mut(element);
        match &mut el.stereotype {
            Some(st) => st.set("code", TagValue::Code(code.into())),
            None => {
                el.stereotype = Some(
                    StereotypeApplication::new("action+").with("code", TagValue::Code(code.into())),
                );
            }
        }
    }

    /// Set/replace any tag on an element's stereotype.
    pub fn set_tag(&mut self, element: ElementId, tag: &str, value: TagValue) {
        let el = self.model.element_mut(element);
        if let Some(st) = &mut el.stereotype {
            st.set(tag, value);
        }
    }

    /// Add an `<<activity+>>` composite whose body is `sub`.
    pub fn call_activity(&mut self, diagram: DiagramId, name: &str, sub: DiagramId) -> ElementId {
        let id = self.auto_id();
        let st = StereotypeApplication::new("activity+")
            .with("id", TagValue::Int(id))
            .with(
                "diagram",
                TagValue::Str(self.model.diagram(sub).name.clone()),
            );
        self.model
            .add_element(diagram, name, NodeKind::CallActivity(sub), Some(st))
    }

    /// Add a `<<loop+>>` composite: body `sub` repeated `iterations` times.
    pub fn loop_activity(
        &mut self,
        diagram: DiagramId,
        name: &str,
        sub: DiagramId,
        iterations: &str,
    ) -> ElementId {
        let id = self.auto_id();
        let st = StereotypeApplication::new("loop+")
            .with("id", TagValue::Int(id))
            .with("iterations", TagValue::Expr(iterations.into()));
        self.model
            .add_element(diagram, name, NodeKind::CallActivity(sub), Some(st))
    }

    /// Add a `<<parallel+>>` composite (OpenMP parallel region) running
    /// `sub` on `threads` threads.
    pub fn parallel_activity(
        &mut self,
        diagram: DiagramId,
        name: &str,
        sub: DiagramId,
        threads: &str,
    ) -> ElementId {
        let id = self.auto_id();
        let st = StereotypeApplication::new("parallel+")
            .with("id", TagValue::Int(id))
            .with("threads", TagValue::Expr(threads.into()));
        self.model
            .add_element(diagram, name, NodeKind::CallActivity(sub), Some(st))
    }

    /// Add a `<<critical+>>` composite: body `sub` executed under mutual
    /// exclusion on the named lock.
    pub fn critical_activity(
        &mut self,
        diagram: DiagramId,
        name: &str,
        sub: DiagramId,
        lock: &str,
    ) -> ElementId {
        let id = self.auto_id();
        let st = StereotypeApplication::new("critical+")
            .with("id", TagValue::Int(id))
            .with("lock", TagValue::Str(lock.into()));
        self.model
            .add_element(diagram, name, NodeKind::CallActivity(sub), Some(st))
    }

    /// Add a decision node.
    pub fn decision(&mut self, diagram: DiagramId, name: &str) -> ElementId {
        self.model
            .add_element(diagram, name, NodeKind::Decision, None)
    }

    /// Add a merge node.
    pub fn merge(&mut self, diagram: DiagramId, name: &str) -> ElementId {
        self.model.add_element(diagram, name, NodeKind::Merge, None)
    }

    /// Add a fork bar.
    pub fn fork(&mut self, diagram: DiagramId, name: &str) -> ElementId {
        self.model.add_element(diagram, name, NodeKind::Fork, None)
    }

    /// Add a join bar.
    pub fn join(&mut self, diagram: DiagramId, name: &str) -> ElementId {
        self.model.add_element(diagram, name, NodeKind::Join, None)
    }

    /// Add an MPI communication action (`send`, `recv`, `broadcast`, …)
    /// with tags.
    pub fn mpi(
        &mut self,
        diagram: DiagramId,
        name: &str,
        stereotype: &str,
        tags: &[(&str, TagValue)],
    ) -> ElementId {
        let id = self.auto_id();
        let mut st = StereotypeApplication::new(stereotype).with("id", TagValue::Int(id));
        for (k, v) in tags {
            st.set(k, v.clone());
        }
        self.model
            .add_element(diagram, name, NodeKind::Action, Some(st))
    }

    /// Add an unguarded control flow.
    pub fn flow(&mut self, diagram: DiagramId, from: ElementId, to: ElementId) {
        self.model.add_edge(diagram, from, to, None);
    }

    /// Add a guarded control flow (out of a decision node).
    pub fn guarded_flow(
        &mut self,
        diagram: DiagramId,
        from: ElementId,
        to: ElementId,
        guard: &str,
    ) {
        self.model.add_edge(diagram, from, to, Some(guard.into()));
    }

    /// Declare a global variable.
    pub fn global(&mut self, name: &str, var_type: VarType, init: Option<&str>) {
        self.model.add_variable(Variable {
            name: name.into(),
            var_type,
            scope: VarScope::Global,
            init: init.map(|s| s.to_string()),
        });
    }

    /// Declare a local variable.
    pub fn local(&mut self, name: &str, var_type: VarType, init: Option<&str>) {
        self.model.add_variable(Variable {
            name: name.into(),
            var_type,
            scope: VarScope::Local,
            init: init.map(|s| s.to_string()),
        });
    }

    /// Define a cost function.
    pub fn function(&mut self, name: &str, params: &[&str], body: &str) {
        self.model.add_function(FunctionDecl {
            name: name.into(),
            params: params.iter().map(|s| s.to_string()).collect(),
            body: body.into(),
        });
    }

    /// Finish and return the model.
    pub fn build(self) -> Model {
        self.model
    }

    /// Peek at the model under construction.
    pub fn model(&self) -> &Model {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain() {
        let mut b = ModelBuilder::new("chain");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A", "1.0");
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        let m = b.build();
        assert_eq!(m.element_count(), 3);
        assert_eq!(m.diagram(main).edges.len(), 2);
    }

    #[test]
    fn auto_ids_are_sequential() {
        let mut b = ModelBuilder::new("ids");
        let main = b.main_diagram();
        let a1 = b.action(main, "A1", "1");
        let a2 = b.action(main, "A2", "1");
        let m = b.build();
        assert_eq!(m.element(a1).tag("id"), Some(&TagValue::Int(1)));
        assert_eq!(m.element(a2).tag("id"), Some(&TagValue::Int(2)));
    }

    #[test]
    fn attach_code_adds_tag() {
        let mut b = ModelBuilder::new("code");
        let main = b.main_diagram();
        let a1 = b.action(main, "A1", "FA1()");
        b.attach_code(a1, "GV = 1; P = 4;");
        let m = b.build();
        assert_eq!(m.element(a1).code_fragment(), Some("GV = 1; P = 4;"));
        assert_eq!(m.element(a1).cost_expr(), Some("FA1()"));
    }

    #[test]
    fn composite_records_diagram_name_tag() {
        let mut b = ModelBuilder::new("comp");
        let main = b.main_diagram();
        let sub = b.diagram("SA");
        let sa = b.call_activity(main, "SA", sub);
        let m = b.build();
        assert_eq!(
            m.element(sa).tag("diagram"),
            Some(&TagValue::Str("SA".into()))
        );
    }

    #[test]
    fn timed_action_has_time_tag() {
        let mut b = ModelBuilder::new("t");
        let main = b.main_diagram();
        let a = b.timed_action(main, "SampleAction", 10.0);
        let m = b.build();
        assert_eq!(m.element(a).tag("time"), Some(&TagValue::Num(10.0)));
        assert!(m.element(a).cost_expr().is_none());
    }

    #[test]
    fn mpi_builder() {
        let mut b = ModelBuilder::new("mpi");
        let main = b.main_diagram();
        let s = b.mpi(
            main,
            "send0",
            "send",
            &[
                ("dest", TagValue::Expr("pid + 1".into())),
                ("size", TagValue::Expr("8 * N".into())),
            ],
        );
        let m = b.build();
        assert_eq!(m.element(s).stereotype_name(), Some("send"));
        assert_eq!(m.element(s).tag("dest").unwrap().as_expr(), Some("pid + 1"));
    }
}
