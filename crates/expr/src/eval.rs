//! The reference evaluator: a tree walk over the name-keyed [`Env`].
//!
//! Every variable read, assignment and call looks its name up in the
//! environment. Production code evaluates resolved expressions instead
//! ([`crate::resolved`]); this walk is the oracle they are tested
//! against. Both share the operators and builtins.
//!
//! Guards: user-function call depth is limited by [`Env::new`]'s
//! `max_call_depth` (cost functions may compose each other — Section 4 —
//! but accidental infinite recursion must fail cleanly), and `while` loops
//! are limited by `max_loop_iters`.

use crate::ast::{BinOp, Expr, Stmt};
use crate::builtin::Builtin;
use crate::env::{Env, Value};
use crate::error::{ExprError, ExprResult};
use crate::resolved::{binary, unary};
use std::sync::Arc;

impl Expr {
    /// Evaluate this expression in `env`.
    pub fn eval(&self, env: &mut Env) -> ExprResult<Value> {
        eval_expr(self, env, 0)
    }
}

impl Stmt {
    /// Execute this statement against `env`. Declarations (`var`) bind into
    /// `env` directly, like assignments, and outlive the fragment.
    pub fn exec(&self, env: &mut Env) -> ExprResult<()> {
        exec_stmt(self, env, 0)
    }
}

/// Execute a whole fragment in order.
pub fn exec_fragment(stmts: &[Stmt], env: &mut Env) -> ExprResult<()> {
    for s in stmts {
        exec_stmt(s, env, 0)?;
    }
    Ok(())
}

fn eval_expr(e: &Expr, env: &mut Env, depth: usize) -> ExprResult<Value> {
    if depth > env.max_call_depth {
        return Err(ExprError::eval(format!(
            "call depth exceeded {} (recursive cost function?)",
            env.max_call_depth
        )));
    }
    match e {
        Expr::Num(n) => Ok(Value::Num(*n)),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Var(name) => env
            .get_var(name)
            .ok_or_else(|| ExprError::eval(format!("undefined variable `{name}`"))),
        Expr::Unary(op, inner) => unary(*op, eval_expr(inner, env, depth)?),
        Expr::Binary(op, a, b) => {
            // Short-circuit logicals first.
            match op {
                BinOp::And => {
                    let va = eval_expr(a, env, depth)?;
                    if !va.truthy() {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(eval_expr(b, env, depth)?.truthy()));
                }
                BinOp::Or => {
                    let va = eval_expr(a, env, depth)?;
                    if va.truthy() {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(eval_expr(b, env, depth)?.truthy()));
                }
                _ => {}
            }
            let va = eval_expr(a, env, depth)?;
            let vb = eval_expr(b, env, depth)?;
            binary(*op, va, vb)
        }
        Expr::Cond(c, t, f) => {
            if eval_expr(c, env, depth)?.truthy() {
                eval_expr(t, env, depth)
            } else {
                eval_expr(f, env, depth)
            }
        }
        Expr::Call(name, args) => {
            // Builtins first (they cannot be shadowed — keeps emitted C++
            // semantics aligned, where these map to <cmath>).
            if let Some(f) = Builtin::from_name(name) {
                let arity = f.arity();
                if args.len() != arity {
                    return Err(ExprError::eval(format!(
                        "builtin `{name}` expects {arity} argument(s), got {}",
                        args.len()
                    )));
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(eval_expr(a, env, depth)?.as_num()?);
                }
                return Ok(Value::Num(f.apply(&vals)?));
            }
            let def = env
                .get_function(name)
                .map(Arc::clone)
                .ok_or_else(|| ExprError::eval(format!("undefined function `{name}`")))?;
            if args.len() != def.params.len() {
                return Err(ExprError::eval(format!(
                    "function `{name}` expects {} argument(s), got {}",
                    def.params.len(),
                    args.len()
                )));
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(a, env, depth)?);
            }
            // Bind parameters, saving shadowed outer values for restore.
            let mut saved: Vec<Option<Value>> = Vec::with_capacity(def.params.len());
            for (p, v) in def.params.iter().zip(vals) {
                saved.push(env.get_var(p));
                env.assign(p, v);
            }
            let result = eval_expr(&def.body, env, depth + 1);
            for (p, old) in def.params.iter().zip(saved) {
                match old {
                    Some(v) => env.assign(p, v),
                    None => {
                        env.remove_var(p);
                    }
                }
            }
            result
        }
    }
}

fn exec_stmt(s: &Stmt, env: &mut Env, depth: usize) -> ExprResult<()> {
    match s {
        Stmt::Decl(name, e) | Stmt::Assign(name, e) => {
            let v = eval_expr(e, env, depth)?;
            env.assign(name, v);
            Ok(())
        }
        Stmt::Expr(e) => {
            eval_expr(e, env, depth)?;
            Ok(())
        }
        Stmt::If(c, then, els) => {
            let branch = if eval_expr(c, env, depth)?.truthy() {
                then
            } else {
                els
            };
            for s in branch {
                exec_stmt(s, env, depth)?;
            }
            Ok(())
        }
        Stmt::While(c, body) => {
            let mut iters = 0usize;
            while eval_expr(c, env, depth)?.truthy() {
                iters += 1;
                if iters > env.max_loop_iters {
                    return Err(ExprError::eval(format!(
                        "while loop exceeded {} iterations",
                        env.max_loop_iters
                    )));
                }
                for s in body {
                    exec_stmt(s, env, depth)?;
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::FunctionDef;
    use crate::parser::{parse_expression, parse_statements};

    fn num(src: &str, env: &mut Env) -> f64 {
        parse_expression(src)
            .unwrap()
            .eval(env)
            .unwrap()
            .as_num()
            .unwrap()
    }

    #[test]
    fn arithmetic() {
        let mut env = Env::new();
        assert_eq!(num("1 + 2 * 3", &mut env), 7.0);
        assert_eq!(num("10 - 3 - 2", &mut env), 5.0);
        assert_eq!(num("7 % 4", &mut env), 3.0);
        assert_eq!(num("2 ^ 10", &mut env), 1024.0);
        assert_eq!(num("-2 ^ 2", &mut env), 4.0); // (-2)^2: unary binds tighter
    }

    #[test]
    fn comparisons_and_logic() {
        let mut env = Env::new();
        let e = parse_expression("1 < 2 && 2 <= 2 && 3 > 2 && 3 >= 3 && 1 == 1 && 1 != 2").unwrap();
        assert_eq!(e.eval(&mut env).unwrap(), Value::Bool(true));
        let e = parse_expression("!(1 < 2) || false").unwrap();
        assert_eq!(e.eval(&mut env).unwrap(), Value::Bool(false));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        let mut env = Env::new();
        // Division by zero on the rhs must not be evaluated.
        let e = parse_expression("false && 1 / 0 > 0").unwrap();
        assert_eq!(e.eval(&mut env).unwrap(), Value::Bool(false));
        let e = parse_expression("true || 1 / 0 > 0").unwrap();
        assert_eq!(e.eval(&mut env).unwrap(), Value::Bool(true));
    }

    #[test]
    fn conditional() {
        let mut env = Env::new();
        env.set_num("P", 4.0);
        assert_eq!(num("P > 2 ? 10 : 20", &mut env), 10.0);
        assert_eq!(num("P > 8 ? 10 : 20", &mut env), 20.0);
    }

    #[test]
    fn numeric_truthiness_matches_c() {
        // The paper's guards branch on an int GV; C semantics: non-zero is
        // true.
        let mut env = Env::new();
        env.set_num("GV", 1.0);
        assert_eq!(num("GV ? 1 : 0", &mut env), 1.0);
        env.set_num("GV", 0.0);
        assert_eq!(num("GV ? 1 : 0", &mut env), 0.0);
    }

    #[test]
    fn undefined_variable_reported() {
        let mut env = Env::new();
        let e = parse_expression("missing + 1")
            .unwrap()
            .eval(&mut env)
            .unwrap_err();
        assert!(e.message().contains("missing"), "{e}");
    }

    #[test]
    fn division_by_zero_reported() {
        let mut env = Env::new();
        assert!(parse_expression("1 / 0").unwrap().eval(&mut env).is_err());
        assert!(parse_expression("1 % 0").unwrap().eval(&mut env).is_err());
    }

    #[test]
    fn user_functions_bind_and_restore_params() {
        let mut env = Env::new();
        env.set_num("x", 100.0);
        env.define_function(FunctionDef::parse("F", &["x"], "x * 2").unwrap());
        assert_eq!(num("F(3)", &mut env), 6.0);
        // The outer `x` must be restored after the call.
        assert_eq!(env.get_var("x"), Some(Value::Num(100.0)));
    }

    #[test]
    fn unset_params_are_removed_after_the_call() {
        let mut env = Env::new();
        env.define_function(FunctionDef::parse("F", &["y"], "y + 1").unwrap());
        assert_eq!(num("F(3)", &mut env), 4.0);
        assert!(!env.has_var("y"));
        assert_eq!(env.var_count(), 0);
    }

    #[test]
    fn params_are_restored_when_the_body_errors() {
        let mut env = Env::new();
        env.set_num("x", 100.0);
        env.define_function(FunctionDef::parse("F", &["x", "y"], "x / (y - y)").unwrap());
        let e = parse_expression("F(3, 4)")
            .unwrap()
            .eval(&mut env)
            .unwrap_err();
        assert!(e.message().contains("division by zero"), "{e}");
        // The shadowed global comes back; the fresh parameter is gone.
        assert_eq!(env.get_var("x"), Some(Value::Num(100.0)));
        assert!(!env.has_var("y"));
        assert_eq!(env.var_count(), 1);
    }

    #[test]
    fn function_composition() {
        let mut env = Env::new();
        env.define_function(FunctionDef::parse("G", &["n"], "n + 1").unwrap());
        env.define_function(FunctionDef::parse("F", &["n"], "G(n) * G(n + 1)").unwrap());
        assert_eq!(num("F(2)", &mut env), 12.0); // (2+1)*(3+1)
    }

    #[test]
    fn recursion_depth_guard() {
        let mut env = Env::new();
        env.define_function(FunctionDef::parse("Loop", &[], "Loop()").unwrap());
        let e = parse_expression("Loop()")
            .unwrap()
            .eval(&mut env)
            .unwrap_err();
        assert!(e.message().contains("call depth"), "{e}");
    }

    #[test]
    fn builtin_arity_checked() {
        let mut env = Env::new();
        let e = parse_expression("min(1)")
            .unwrap()
            .eval(&mut env)
            .unwrap_err();
        assert!(e.message().contains("expects 2"), "{e}");
    }

    #[test]
    fn builtins_evaluate() {
        let mut env = Env::new();
        assert_eq!(num("log2(8)", &mut env), 3.0);
        assert_eq!(num("max(min(5, 3), 2)", &mut env), 3.0);
        assert_eq!(num("pow(2, 8)", &mut env), 256.0);
        assert_eq!(num("ceil(1.2) + floor(1.8)", &mut env), 3.0);
    }

    #[test]
    fn fragment_if_while() {
        let mut env = Env::new();
        let ss = parse_statements("var s = 0; var i = 0; while (i < 5) { s = s + i; i = i + 1; }")
            .unwrap();
        exec_fragment(&ss, &mut env).unwrap();
        assert_eq!(env.get_var("s"), Some(Value::Num(10.0)));
    }

    #[test]
    fn loop_iteration_guard() {
        let mut env = Env::new();
        env.max_loop_iters = 10;
        let ss = parse_statements("var i = 0; while (true) { i = i + 1; }").unwrap();
        let e = exec_fragment(&ss, &mut env).unwrap_err();
        assert!(e.message().contains("iterations"), "{e}");
    }

    #[test]
    fn mixed_kind_equality_rejected() {
        let mut env = Env::new();
        let e = parse_expression("true == 1")
            .unwrap()
            .eval(&mut env)
            .unwrap_err();
        assert!(e.message().contains("compare"), "{e}");
    }
}
