//! Property-based tests for the cost-function language: print/parse
//! roundtrips and panic-freedom.

use prophet_expr::{parse_expression, BinOp, Env, Expr, UnOp, Value};
use proptest::prelude::*;

fn var_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "P".to_string(),
        "GV".to_string(),
        "pid".to_string(),
        "tid".to_string(),
        "n".to_string(),
    ])
}

fn binop_strategy() -> impl Strategy<Value = BinOp> {
    prop::sample::select(vec![
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
    ])
}

/// Expressions restricted to total operations (no /, %, sqrt/log domains)
/// so evaluation never legitimately errors.
fn total_expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100i32..100).prop_map(|n| Expr::Num(n as f64)),
        var_strategy().prop_map(Expr::Var),
        any::<bool>().prop_map(Expr::Bool),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (binop_strategy(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Binary(
                op,
                Box::new(a),
                Box::new(b)
            )),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Neg, Box::new(e))),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Not, Box::new(e))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::Cond(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Call("min".into(), vec![a, b])),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Call("max".into(), vec![a, b])),
        ]
    })
}

fn env_with_vars(p: f64, gv: f64, pid: f64, tid: f64, n: f64) -> Env {
    let mut env = Env::new();
    env.set_num("P", p);
    env.set_num("GV", gv);
    env.set_num("pid", pid);
    env.set_num("tid", tid);
    env.set_num("n", n);
    env
}

/// Booleans read as 0/1 doubles, as in the emitted C++; compare through
/// that lens.
fn as_cpp_double(v: Value) -> f64 {
    match v {
        Value::Num(n) => n,
        Value::Bool(b) => {
            if b {
                1.0
            } else {
                0.0
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn display_parse_roundtrip(e in total_expr_strategy()) {
        // Negative literals print as `-1` and reparse as Neg(1), so tree
        // equality is too strict; instead require printing to be a fixpoint
        // and evaluation to agree.
        let printed = e.to_string();
        let reparsed = parse_expression(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
        prop_assert_eq!(reparsed.to_string(), printed.clone(), "printing not idempotent");
        let mut env1 = env_with_vars(4.0, 1.0, 2.0, 1.0, 3.0);
        let mut env2 = env_with_vars(4.0, 1.0, 2.0, 1.0, 3.0);
        let a = e.eval(&mut env1).map(as_cpp_double);
        let b = reparsed.eval(&mut env2).map(as_cpp_double);
        if let (Ok(a), Ok(b)) = (a, b) {
            prop_assert!(a == b || (a.is_nan() && b.is_nan()), "eval mismatch for {}", printed);
        }
    }

    #[test]
    fn eval_never_panics(e in total_expr_strategy()) {
        let mut env = env_with_vars(4.0, 1.0, 0.0, 0.0, 5.0);
        let _ = e.eval(&mut env);
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,80}") {
        let _ = parse_expression(&s);
        let _ = prophet_expr::parse_statements(&s);
    }

    #[test]
    fn cpp_emission_parses_back(e in total_expr_strategy()) {
        // C++ text for pow-free expressions is also valid source for our
        // parser; semantic equality via evaluation on a fixed env.
        let cpp = prophet_expr::cpp::expr_to_cpp(&e);
        if !cpp.contains("std::") && !cpp.contains("true") && !cpp.contains("false") {
            let back = parse_expression(&cpp)
                .unwrap_or_else(|err| panic!("reparse of `{cpp}` failed: {err}"));
            let mut env = env_with_vars(4.0, 1.0, 2.0, 1.0, 3.0);
            let a = e.eval(&mut env).map(as_cpp_double);
            let b = back.eval(&mut env).map(as_cpp_double);
            if let (Ok(a), Ok(b)) = (a, b) {
                prop_assert!(a == b || (a.is_nan() && b.is_nan()));
            }
        }
    }
}
