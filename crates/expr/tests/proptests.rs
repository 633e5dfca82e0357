//! Property-based tests for the cost-function language: print/parse
//! roundtrips, panic-freedom, and the resolved engine's equivalence to
//! the name-keyed reference evaluator.

use prophet_expr::{
    exec_fragment, parse_expression, parse_statements, BinOp, Env, Expr, ExprError, FunctionDef,
    Scope, Stmt, UnOp, Value,
};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

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

// --- Resolved engine vs the name-keyed reference evaluator -------------
//
// A case is a small program: bound globals, model functions, and a
// sequence of elements, each a code fragment followed by a cost
// expression, run in one environment the way elaboration runs a rank.
// Both engines must produce the same outcomes (value bits or error
// text) and leave every variable bound the same way.

/// Variables the generators read, bind and use as parameters.
const VARS: [&str; 5] = ["x", "y", "n", "GV", "P"];
/// Every name whose final binding is compared: [`VARS`], a name nothing
/// binds, and the generated `while` counters.
const NAMES: [&str; 8] = ["x", "y", "n", "GV", "P", "u", "w0", "w1"];
const FUNCTIONS: [&str; 3] = ["F0", "F1", "F2"];

#[derive(Debug, Clone)]
struct Case {
    globals: Vec<(&'static str, f64)>,
    functions: Vec<FunctionDef>,
    elements: Vec<(Vec<Stmt>, Expr)>,
}

impl Case {
    fn new(globals: &[(&'static str, f64)], functions: &[(&str, &[&str], &str)]) -> Self {
        Self {
            globals: globals.to_vec(),
            functions: functions
                .iter()
                .map(|(name, params, body)| FunctionDef::parse(name, params, body).unwrap())
                .collect(),
            elements: Vec::new(),
        }
    }

    fn element(mut self, code: &str, cost: &str) -> Self {
        self.elements.push((
            parse_statements(code).unwrap(),
            parse_expression(cost).unwrap(),
        ));
        self
    }
}

/// A value by bit pattern, or an error by its text.
type Outcome = Result<(bool, u64), String>;

fn outcome(r: Result<Value, ExprError>) -> Outcome {
    r.map(|v| match v {
        Value::Num(x) => (false, x.to_bits()),
        Value::Bool(b) => (true, b as u64),
    })
    .map_err(|e| e.to_string())
}

fn binding(v: Option<Value>) -> Option<Outcome> {
    v.map(|v| outcome(Ok(v)))
}

/// Per-element outcomes up to the first error, then every name's final
/// binding.
type Run = (Vec<Outcome>, Vec<Option<Outcome>>);

fn run_reference(case: &Case) -> Run {
    let mut env = Env::new();
    for &(name, v) in &case.globals {
        env.set_num(name, v);
    }
    for f in &case.functions {
        env.define_function(f.clone());
    }
    let mut outcomes = Vec::new();
    for (code, cost) in &case.elements {
        let r = exec_fragment(code, &mut env).and_then(|()| cost.eval(&mut env));
        let failed = r.is_err();
        outcomes.push(outcome(r));
        if failed {
            break;
        }
    }
    let bindings = NAMES.iter().map(|n| binding(env.get_var(n))).collect();
    (outcomes, bindings)
}

fn run_resolved(case: &Case) -> Run {
    let mut scope = Scope::new(&case.functions);
    let globals: Vec<_> = case
        .globals
        .iter()
        .map(|&(name, v)| (scope.slot(name), v))
        .collect();
    let elements: Vec<_> = case
        .elements
        .iter()
        .map(|(code, cost)| (scope.fragment(code), scope.expr(cost)))
        .collect();
    let names: Vec<_> = NAMES.iter().map(|n| scope.slot(n)).collect();
    let mut frame = scope.frame();
    for (slot, v) in globals {
        frame.set(slot, Value::Num(v));
    }
    let mut outcomes = Vec::new();
    for (code, cost) in &elements {
        let r = scope
            .exec(code, &mut frame)
            .and_then(|()| scope.eval(cost, &mut frame));
        let failed = r.is_err();
        outcomes.push(outcome(r));
        if failed {
            break;
        }
    }
    let bindings = names.iter().map(|&s| binding(frame.get(s))).collect();
    (outcomes, bindings)
}

/// Run `case` on both engines, require they agree, and return the
/// outcomes.
fn agree(case: &Case) -> Vec<Outcome> {
    let reference = run_reference(case);
    let resolved = run_resolved(case);
    assert_eq!(resolved, reference, "engines disagree on {case:#?}");
    reference.0
}

fn num(x: f64) -> Outcome {
    Ok((false, x.to_bits()))
}

fn error(message: &str) -> Outcome {
    Err(format!("evaluation error: {message}"))
}

/// Expressions over every operator, builtins with right and wrong
/// arities, and calls to `callable` model functions plus an undefined
/// one. Literals include zero and a huge value, so division by zero,
/// infinities and NaNs all occur.
fn any_expr(callable: &'static [&'static str]) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        prop::sample::select(vec![0.0, 1.0, 2.0, -1.0, 0.5, 3.0, 1e308]).prop_map(Expr::Num),
        any::<bool>().prop_map(Expr::Bool),
        prop::sample::select(NAMES.to_vec()).prop_map(|v| Expr::Var(v.to_string())),
    ];
    let ops = vec![
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Pow,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
    ];
    let mut fns: Vec<&'static str> = callable.to_vec();
    fns.push("Undef");
    leaf.prop_recursive(4, 48, 3, move |inner| {
        prop_oneof![
            (
                prop::sample::select(ops.clone()),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Binary(op, Box::new(a), Box::new(b))),
            (any::<bool>(), inner.clone()).prop_map(|(neg, e)| Expr::Unary(
                if neg { UnOp::Neg } else { UnOp::Not },
                Box::new(e)
            )),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::Cond(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
            (
                prop::sample::select(vec!["min", "pow", "fmod", "sqrt", "log2", "floor"]),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(f, args)| Expr::Call(f.to_string(), args)),
            (
                prop::sample::select(fns.clone()),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(f, args)| Expr::Call(f.to_string(), args)),
        ]
    })
}

/// A fragment statement at nesting `depth`. A `while` counts a counter
/// no other statement assigns up to a small bound, so it terminates.
fn any_stmt(depth: usize) -> BoxedStrategy<Stmt> {
    let expr = any_expr(&FUNCTIONS);
    let simple = prop_oneof![
        (prop::sample::select(VARS.to_vec()), expr.clone())
            .prop_map(|(v, e)| Stmt::Decl(v.to_string(), e)),
        (prop::sample::select(VARS.to_vec()), expr.clone())
            .prop_map(|(v, e)| Stmt::Assign(v.to_string(), e)),
        expr.clone().prop_map(Stmt::Expr),
    ]
    .boxed();
    if depth >= 2 {
        return simple;
    }
    let counter = format!("w{depth}");
    let block = prop::collection::vec(any_stmt(depth + 1), 0..3).boxed();
    prop_oneof![
        simple,
        (expr, block.clone(), block.clone()).prop_map(|(c, t, e)| Stmt::If(c, t, e)),
        (0u32..4, block).prop_map(move |(bound, mut body)| {
            let w = || Box::new(Expr::Var(counter.clone()));
            body.push(Stmt::Assign(
                counter.clone(),
                Expr::Binary(BinOp::Add, w(), Box::new(Expr::Num(1.0))),
            ));
            let cond = Expr::Binary(BinOp::Lt, w(), Box::new(Expr::Num(bound as f64)));
            Stmt::If(
                Expr::Bool(true),
                vec![
                    Stmt::Assign(counter.clone(), Expr::Num(0.0)),
                    Stmt::While(cond, body),
                ],
                vec![],
            )
        }),
    ]
    .boxed()
}

/// `Fi` may call only `Fj` with `j > i`, so random bodies never recurse
/// (recursion has its own tests); parameters are drawn from [`VARS`],
/// so they shadow globals, and may repeat.
fn any_functions() -> impl Strategy<Value = Vec<FunctionDef>> {
    let def = |i: usize| {
        (
            prop::collection::vec(prop::sample::select(VARS.to_vec()), 0..3),
            any_expr(&FUNCTIONS[i + 1..]),
        )
            .prop_map(move |(params, body)| {
                FunctionDef::new(
                    FUNCTIONS[i],
                    params.into_iter().map(String::from).collect(),
                    body,
                )
            })
    };
    (def(0), def(1), def(2)).prop_map(|(a, b, c)| vec![a, b, c])
}

fn any_case() -> impl Strategy<Value = Case> {
    let globals = prop::collection::vec(
        (
            prop::sample::select(VARS.to_vec()),
            prop::sample::select(vec![0.0, 1.0, 2.0, 4.0, -3.0]),
        ),
        0..5,
    );
    let element = (
        prop::collection::vec(any_stmt(0), 0..3),
        any_expr(&FUNCTIONS),
    );
    (
        globals,
        any_functions(),
        prop::collection::vec(element, 1..5),
    )
        .prop_map(|(globals, functions, elements)| Case {
            globals,
            functions,
            elements,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn resolved_matches_reference_on_random_programs(case in any_case()) {
        prop_assert_eq!(run_resolved(&case), run_reference(&case), "case {:#?}", case);
    }

    #[test]
    fn resolved_matches_reference_on_bounded_recursion(n in 0u32..80) {
        // One call per level: F(63) nests 64 calls, the limit; F(64) is
        // one too many.
        let case = Case::new(&[], &[("F", &["n"], "n <= 0 ? 0 : 1 + F(n - 1)")])
            .element("", &format!("F({n})"));
        let expected = if n <= 63 {
            num(n as f64)
        } else {
            error("call depth exceeded 64 (recursive cost function?)")
        };
        prop_assert_eq!(agree(&case), vec![expected]);
    }
}

#[test]
fn resolved_matches_reference_on_fragment_declarations() {
    // A `var` declared in one element's fragment is read by a later
    // element's cost.
    let case = Case::new(&[("GV", 0.0)], &[])
        .element("var t = 2; GV = 1;", "1")
        .element("", "GV == 1 ? t * 3 : 0");
    assert_eq!(agree(&case), vec![num(1.0), num(6.0)]);
}

#[test]
fn resolved_matches_reference_on_shadowing_parameters() {
    let case = Case::new(
        &[("x", 100.0)],
        &[("F", &["x"], "x * 2"), ("G", &["x", "x"], "x")],
    )
    .element("", "F(3) + x")
    .element("", "G(1, 2)")
    // The repeated parameter leaves its first argument bound, as the
    // reference does.
    .element("", "x");
    assert_eq!(agree(&case), vec![num(106.0), num(2.0), num(1.0)]);
}

#[test]
fn resolved_matches_reference_on_runaway_recursion_and_loops() {
    let depth = error("call depth exceeded 64 (recursive cost function?)");
    let case = Case::new(&[], &[("Loop", &[], "Loop()")]).element("", "Loop()");
    assert_eq!(agree(&case), vec![depth.clone()]);
    let case =
        Case::new(&[], &[("A", &["n"], "B(n) + 1"), ("B", &["n"], "A(n)")]).element("", "A(1)");
    assert_eq!(agree(&case), vec![depth]);
    let case = Case::new(&[], &[]).element("var i = 0; while (true) { i = i + 1; }", "i");
    assert_eq!(
        agree(&case),
        vec![error("while loop exceeded 1000000 iterations")]
    );
}

#[test]
fn resolved_matches_reference_on_failing_constants_in_untaken_branches() {
    let case = Case::new(&[("GV", 1.0)], &[])
        .element("", "GV > 0 ? 1 : 1 / 0")
        .element("", "false ? 1 / 0 : 2")
        .element("if (GV < 0) { GV = sqrt(-1); }", "true || 1 % 0 > 0")
        .element("", "GV > 0 ? log2(0) : 2");
    assert_eq!(
        agree(&case),
        vec![
            num(1.0),
            num(2.0),
            Ok((true, 1)),
            error("logarithm of non-positive number 0"),
        ]
    );
}

#[test]
fn resolved_matches_reference_on_static_errors() {
    let functions: &[(&str, &[&str], &str)] = &[("F", &["n"], "n"), ("H", &[], "Nope(1)")];
    for (cost, message) in [
        ("u + 1", "undefined variable `u`"),
        ("Nope(1)", "undefined function `Nope`"),
        ("1 + H()", "undefined function `Nope`"),
        ("F(1, 2)", "function `F` expects 1 argument(s), got 2"),
        ("min(1)", "builtin `min` expects 2 argument(s), got 1"),
        ("true + 1", "expected a number, found a boolean"),
        ("true == 1", "cannot compare a number with a boolean"),
    ] {
        let case = Case::new(&[], functions).element("", cost);
        assert_eq!(agree(&case), vec![error(message)], "{cost}");
    }
}

#[test]
fn resolved_matches_reference_on_constant_folds() {
    // Every folding rule, on operands that fold, fail, or are unbound.
    for cost in [
        "true && false",
        "false && u",
        "true && u",
        "1 && 2",
        "0 && 1 / 0",
        "true || u",
        "false || u",
        "0 || 3",
        "1 / 0 || true",
        "-true",
        "!0",
        "!u",
        "1 ? 2 : u",
        "0 ? u : 3",
        "u ? 1 : 2",
        "sqrt(true)",
        "min(true, 1)",
        "min(2, false)",
        "pow(2, 0.5) * 2",
        "fmod(7, 0) + 1",
        "1e308 * 10 - 1e308 * 10",
        "2 ^ 0.5 == pow(2, 0.5)",
        "true != false",
        "3 % -2",
    ] {
        let case = Case::new(&[], &[]).element("", cost);
        let reference = run_reference(&case);
        assert_eq!(run_resolved(&case), reference, "{cost}");
    }
}
