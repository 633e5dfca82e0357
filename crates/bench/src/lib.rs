//! Shared helpers for the benchmark harness: synthetic model generators
//! sized by element count, used by the transformation/checker/traverser
//! scaling benches, plus the named [`random`] streams the DES benches
//! and queueing tests sample service times from.

#![forbid(unsafe_code)]

pub mod random;

use prophet_uml::{Model, ModelBuilder, VarType};

/// A linear chain of `n` `<<action+>>` elements with cost functions —
/// the transformation-scaling workload (experiment E2).
pub fn chain_model(n: usize) -> Model {
    let mut b = ModelBuilder::new("chain");
    b.global("GV", VarType::Int, Some("0"));
    b.function("FStep", &["k"], "0.001 + 0.0001 * k");
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let mut prev = i;
    for k in 0..n {
        let a = b.action(main, &format!("A{k}"), &format!("FStep({k})"));
        b.flow(main, prev, a);
        prev = a;
    }
    let f = b.final_node(main, "end");
    b.flow(main, prev, f);
    b.build()
}

/// A model with hierarchical composites (depth × width), stressing the
/// traverser and the nested-block emission.
pub fn nested_model(depth: usize, width: usize) -> Model {
    let mut b = ModelBuilder::new("nested");
    let mut current = b.main_diagram();
    for level in 0..depth {
        // `width` actions chained, then one composite leading deeper.
        let entry = b.initial(current, &format!("init{level}"));
        let mut prev = entry;
        for k in 0..width {
            let a = b.action(current, &format!("L{level}N{k}"), "0.001");
            b.flow(current, prev, a);
            prev = a;
        }
        if level + 1 < depth {
            let sub = b.diagram(&format!("level{}", level + 1));
            let comp = b.call_activity(current, &format!("C{level}"), sub);
            b.flow(current, prev, comp);
            let f = b.final_node(current, &format!("fin{level}"));
            b.flow(current, comp, f);
            current = sub;
        } else {
            let f = b.final_node(current, &format!("fin{level}"));
            b.flow(current, prev, f);
        }
    }
    b.build()
}

/// A model with decisions every `period` elements (if/else-if emission
/// stress).
pub fn branchy_model(n: usize, period: usize) -> Model {
    let mut b = ModelBuilder::new("branchy");
    b.global("GV", VarType::Int, Some("1"));
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let mut prev = i;
    for k in 0..n {
        if k % period == period - 1 {
            let d = b.decision(main, &format!("D{k}"));
            let x = b.action(main, &format!("X{k}"), "0.001");
            let y = b.action(main, &format!("Y{k}"), "0.002");
            let m = b.merge(main, &format!("M{k}"));
            b.flow(main, prev, d);
            b.guarded_flow(main, d, x, "GV == 1");
            b.guarded_flow(main, d, y, "else");
            b.flow(main, x, m);
            b.flow(main, y, m);
            prev = m;
        } else {
            let a = b.action(main, &format!("A{k}"), "0.001");
            b.flow(main, prev, a);
            prev = a;
        }
    }
    let f = b.final_node(main, "end");
    b.flow(main, prev, f);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_expected_sizes() {
        assert_eq!(chain_model(100).performance_elements().len(), 100);
        let nested = nested_model(4, 5);
        assert_eq!(nested.diagrams.len(), 4);
        let branchy = branchy_model(20, 5);
        assert!(branchy.performance_elements().len() >= 20);
    }

    #[test]
    fn generated_models_transform() {
        for m in [chain_model(50), nested_model(3, 4), branchy_model(30, 6)] {
            prophet_core::transform::to_cpp(&m).unwrap();
            prophet_core::transform::to_program(&m).unwrap();
        }
    }
}
