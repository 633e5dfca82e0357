//! Slot-resolved precompiled expressions.
//!
//! The tree-walking evaluator in [`crate::eval`] looks variables up in a
//! hash map on every reference. During simulation the same cost function is
//! evaluated millions of times with the same *shape* of environment, so
//! this module resolves every variable to a dense slot index once
//! ([`Slots`]) and compiles the expression into a closure tree operating on
//! a flat `&[f64]` frame. `bench_expr` compares the two strategies.
//!
//! Restrictions relative to the interpreter (checked at compile time):
//! user-function calls are inlined (recursion is rejected), and all values
//! are numeric — boolean subexpressions are represented as 0.0/1.0 with C
//! truthiness, exactly matching the generated C++.

use crate::ast::{BinOp, Expr, UnOp};
use crate::env::Env;
use crate::error::{ExprError, ExprResult};
use std::collections::HashMap;

/// A mapping from variable names to dense frame slots.
#[derive(Debug, Clone, Default)]
pub struct Slots {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl Slots {
    /// Empty slot table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its slot.
    pub fn intern(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    /// Slot of `name` if already interned.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variables have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Slot names in slot order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Build a frame from `env`, using 0.0 for unset variables.
    pub fn frame_from_env(&self, env: &Env) -> Vec<f64> {
        self.names
            .iter()
            .map(|n| env.get_var(n).and_then(|v| v.as_num().ok()).unwrap_or(0.0))
            .collect()
    }
}

enum Op {
    Const(f64),
    Load(usize),
    Unary(UnOp, Box<Op>),
    Binary(BinOp, Box<Op>, Box<Op>),
    Cond(Box<Op>, Box<Op>, Box<Op>),
    Builtin(fn(&[f64]) -> ExprResult<f64>, Vec<Op>),
}

/// A compiled expression: evaluate with [`CompiledExpr::eval`] against a
/// frame laid out by the associated [`Slots`].
pub struct CompiledExpr {
    root: Op,
    /// Number of slots the frame must have.
    pub frame_len: usize,
}

impl CompiledExpr {
    /// Compile `expr`, interning variables into `slots` and inlining any
    /// user functions defined in `env`.
    pub fn compile(expr: &Expr, env: &Env, slots: &mut Slots) -> ExprResult<Self> {
        let mut inlining: Vec<String> = Vec::new();
        let root = lower(expr, env, slots, &mut inlining, &HashMap::new())?;
        Ok(Self {
            root,
            frame_len: slots.len(),
        })
    }

    /// Evaluate against `frame` (length must be ≥ `frame_len`).
    pub fn eval(&self, frame: &[f64]) -> ExprResult<f64> {
        debug_assert!(frame.len() >= self.frame_len);
        eval_op(&self.root, frame)
    }
}

fn lower(
    e: &Expr,
    env: &Env,
    slots: &mut Slots,
    inlining: &mut Vec<String>,
    substitutions: &HashMap<String, Op>,
) -> ExprResult<Op> {
    Ok(match e {
        Expr::Num(n) => Op::Const(*n),
        Expr::Bool(b) => Op::Const(if *b { 1.0 } else { 0.0 }),
        Expr::Var(name) => {
            if let Some(op) = substitutions.get(name) {
                clone_op(op)
            } else {
                Op::Load(slots.intern(name))
            }
        }
        Expr::Unary(op, inner) => Op::Unary(
            *op,
            Box::new(lower(inner, env, slots, inlining, substitutions)?),
        ),
        Expr::Binary(op, a, b) => Op::Binary(
            *op,
            Box::new(lower(a, env, slots, inlining, substitutions)?),
            Box::new(lower(b, env, slots, inlining, substitutions)?),
        ),
        Expr::Cond(c, t, f) => Op::Cond(
            Box::new(lower(c, env, slots, inlining, substitutions)?),
            Box::new(lower(t, env, slots, inlining, substitutions)?),
            Box::new(lower(f, env, slots, inlining, substitutions)?),
        ),
        Expr::Call(name, args) => {
            if let Some((arity, f)) = Env::builtin(name) {
                if args.len() != arity {
                    return Err(ExprError::eval(format!(
                        "builtin `{name}` expects {arity} argument(s), got {}",
                        args.len()
                    )));
                }
                let mut ops = Vec::with_capacity(args.len());
                for a in args {
                    ops.push(lower(a, env, slots, inlining, substitutions)?);
                }
                Op::Builtin(f, ops)
            } else {
                let def = env.get_function(name).ok_or_else(|| {
                    ExprError::eval(format!("undefined function `{name}` (cannot compile)"))
                })?;
                if inlining.iter().any(|n| n == name) {
                    return Err(ExprError::eval(format!(
                        "recursive cost function `{name}` cannot be compiled"
                    )));
                }
                if args.len() != def.params.len() {
                    return Err(ExprError::eval(format!(
                        "function `{name}` expects {} argument(s), got {}",
                        def.params.len(),
                        args.len()
                    )));
                }
                // Inline: lower each argument, substitute for parameters in
                // the body.
                let mut subst = HashMap::new();
                for (p, a) in def.params.iter().zip(args) {
                    subst.insert(p.clone(), lower(a, env, slots, inlining, substitutions)?);
                }
                inlining.push(name.clone());
                let body = def.body.clone();
                let lowered = lower(&body, env, slots, inlining, &subst)?;
                inlining.pop();
                lowered
            }
        }
    })
}

fn clone_op(op: &Op) -> Op {
    match op {
        Op::Const(n) => Op::Const(*n),
        Op::Load(i) => Op::Load(*i),
        Op::Unary(o, a) => Op::Unary(*o, Box::new(clone_op(a))),
        Op::Binary(o, a, b) => Op::Binary(*o, Box::new(clone_op(a)), Box::new(clone_op(b))),
        Op::Cond(c, t, f) => Op::Cond(
            Box::new(clone_op(c)),
            Box::new(clone_op(t)),
            Box::new(clone_op(f)),
        ),
        Op::Builtin(f, args) => Op::Builtin(*f, args.iter().map(clone_op).collect()),
    }
}

fn eval_op(op: &Op, frame: &[f64]) -> ExprResult<f64> {
    Ok(match op {
        Op::Const(n) => *n,
        Op::Load(i) => frame[*i],
        Op::Unary(UnOp::Neg, a) => -eval_op(a, frame)?,
        Op::Unary(UnOp::Not, a) => {
            if eval_op(a, frame)? != 0.0 {
                0.0
            } else {
                1.0
            }
        }
        Op::Binary(op2, a, b) => {
            let x = eval_op(a, frame)?;
            match op2 {
                BinOp::And => {
                    if x == 0.0 {
                        return Ok(0.0);
                    }
                    return Ok(if eval_op(b, frame)? != 0.0 { 1.0 } else { 0.0 });
                }
                BinOp::Or => {
                    if x != 0.0 {
                        return Ok(1.0);
                    }
                    return Ok(if eval_op(b, frame)? != 0.0 { 1.0 } else { 0.0 });
                }
                _ => {}
            }
            let y = eval_op(b, frame)?;
            match op2 {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return Err(ExprError::eval("division by zero"));
                    }
                    x / y
                }
                BinOp::Rem => {
                    if y == 0.0 {
                        return Err(ExprError::eval("remainder by zero"));
                    }
                    x % y
                }
                BinOp::Pow => x.powf(y),
                BinOp::Eq => (x == y) as u8 as f64,
                BinOp::Ne => (x != y) as u8 as f64,
                BinOp::Lt => (x < y) as u8 as f64,
                BinOp::Le => (x <= y) as u8 as f64,
                BinOp::Gt => (x > y) as u8 as f64,
                BinOp::Ge => (x >= y) as u8 as f64,
                BinOp::And | BinOp::Or => unreachable!(),
            }
        }
        Op::Cond(c, t, f) => {
            if eval_op(c, frame)? != 0.0 {
                eval_op(t, frame)?
            } else {
                eval_op(f, frame)?
            }
        }
        Op::Builtin(f, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_op(a, frame)?);
            }
            f(&vals)?
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{FunctionDef, Value};
    use crate::parser::parse_expression;

    #[test]
    fn compiled_matches_interpreter() {
        let mut env = Env::new();
        env.define_function(FunctionDef::parse("G", &["n"], "n + 1").unwrap());
        env.set_num("P", 8.0);
        env.set_num("pid", 3.0);
        let e = parse_expression("0.5 * G(P) + (pid > 1 ? log2(P) : 0) - min(P, 4)").unwrap();

        let interpreted = e.eval(&mut env).unwrap().as_num().unwrap();

        let mut slots = Slots::new();
        let c = CompiledExpr::compile(&e, &env, &mut slots).unwrap();
        let frame = slots.frame_from_env(&env);
        let compiled = c.eval(&frame).unwrap();

        assert!((interpreted - compiled).abs() < 1e-12);
    }

    #[test]
    fn function_inlining() {
        let mut env = Env::new();
        env.define_function(FunctionDef::parse("F", &["x"], "x * x").unwrap());
        let e = parse_expression("F(3) + F(4)").unwrap();
        let mut slots = Slots::new();
        let c = CompiledExpr::compile(&e, &env, &mut slots).unwrap();
        assert_eq!(slots.len(), 0); // fully constant after inlining
        assert_eq!(c.eval(&[]).unwrap(), 25.0);
    }

    #[test]
    fn nested_composition_inlines() {
        let mut env = Env::new();
        env.define_function(FunctionDef::parse("G", &["n"], "n + 1").unwrap());
        env.define_function(FunctionDef::parse("F", &["n"], "G(n) * G(n + 1)").unwrap());
        let e = parse_expression("F(y)").unwrap();
        let mut slots = Slots::new();
        let c = CompiledExpr::compile(&e, &env, &mut slots).unwrap();
        let y = slots.get("y").unwrap();
        let mut frame = vec![0.0; slots.len()];
        frame[y] = 2.0;
        assert_eq!(c.eval(&frame).unwrap(), 12.0);
    }

    #[test]
    fn recursion_rejected_at_compile_time() {
        let mut env = Env::new();
        env.define_function(FunctionDef::parse("R", &[], "R()").unwrap());
        let e = parse_expression("R()").unwrap();
        let mut slots = Slots::new();
        let err = match CompiledExpr::compile(&e, &env, &mut slots) {
            Err(err) => err,
            Ok(_) => panic!("recursive function compiled"),
        };
        assert!(err.message().contains("recursive"), "{err}");
    }

    #[test]
    fn frame_from_env_defaults_missing_to_zero() {
        let mut env = Env::new();
        env.set_var("a", Value::Num(5.0));
        let mut slots = Slots::new();
        slots.intern("a");
        slots.intern("b");
        assert_eq!(slots.frame_from_env(&env), vec![5.0, 0.0]);
    }

    #[test]
    fn c_truthiness_in_compiled_logic() {
        let env = Env::new();
        let e = parse_expression("(2 && 3) + (0 || 7)").unwrap();
        let mut slots = Slots::new();
        let c = CompiledExpr::compile(&e, &env, &mut slots).unwrap();
        // (true=1) + (7!=0 → 1) = 2
        assert_eq!(c.eval(&[]).unwrap(), 2.0);
    }

    #[test]
    fn slots_dedupe() {
        let mut slots = Slots::new();
        assert_eq!(slots.intern("x"), 0);
        assert_eq!(slots.intern("y"), 1);
        assert_eq!(slots.intern("x"), 0);
        assert_eq!(slots.len(), 2);
        assert_eq!(slots.names(), &["x".to_string(), "y".to_string()]);
    }
}
