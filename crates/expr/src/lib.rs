//! # prophet-expr
//!
//! The cost-function and code-fragment language of the Performance Prophet
//! reproduction (Pllana et al., ICPP-W 2008).
//!
//! In the paper, every performance modeling element may carry:
//!
//! * a **cost function** — e.g. `TK6 = FK6(...)` for Livermore kernel 6, or
//!   the `FA1 .. FSA2` functions of the Figure 7/8 sample model. Cost
//!   functions model the execution time of a code block; they may take
//!   model variables and system properties (`P`, `pid`, `tid`, `uid`, …)
//!   as parameters and may *compose other functions defined in the model*;
//! * an associated **code fragment** — e.g. Figure 7(b) associates with
//!   element `A1` a fragment that assigns the globals `GV` and `P`.
//!
//! The original system carried these as C++ source strings pasted into the
//! generated PMP. Because this reproduction also *executes* models directly
//! (the Performance Estimator interprets them against the simulation
//! engine), the language is implemented for real:
//!
//! * [`token`] / [`parser`] — lexer and Pratt parser for a C-like
//!   expression grammar (arithmetic, comparisons, logicals, `?:`, calls),
//! * [`ast`] — expression and statement trees; they keep their names for
//!   C++ emission, the model checker and error texts,
//! * [`resolved`] — the evaluator elaboration runs: a [`Scope`] resolves
//!   every variable to a slot of a flat [`Frame`] and every call to a
//!   function index or a [`Builtin`] once, folding constants, so
//!   evaluation does no name lookup and no allocation,
//! * [`builtin`] — the deterministic builtin functions,
//! * [`mod@env`] / [`eval`] — the name-keyed reference evaluator, a tree
//!   walk over a `HashMap` environment with the same recursion and
//!   iteration limits; tests hold the resolved engine to it, value for
//!   value and error for error,
//! * [`cpp`] — C++ emission used by the PMP generator, so the emitted
//!   model text matches the paper's Figure 8 listing shape.
//!
//! ## Quickstart
//!
//! ```
//! use prophet_expr::{parse_expression, FunctionDef, Scope, Value};
//!
//! let f = FunctionDef::parse("FA1", &["n"], "0.04 + 0.01 * log2(n)").unwrap();
//! let mut scope = Scope::new(&[f]);
//! let e = scope.expr(&parse_expression("FA1(P)").unwrap());
//! let p = scope.slot("P");
//! let mut frame = scope.frame();
//! frame.set(p, Value::Num(8.0));
//! let t = scope.eval(&e, &mut frame).unwrap().as_num().unwrap();
//! assert!((t - 0.07).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod builtin;
pub mod cpp;
pub mod env;
pub mod error;
pub mod eval;
pub mod parser;
pub mod resolved;
pub mod token;

pub use ast::{BinOp, Expr, Stmt, UnOp};
pub use builtin::Builtin;
pub use env::{Env, FunctionDef, Value};
pub use error::{ExprError, ExprResult};
pub use eval::exec_fragment;
pub use parser::{parse_expression, parse_statements, Parser};
pub use resolved::{Frame, RExpr, RStmt, Scope, Slot};
pub use token::{Token, TokenKind, Tokenizer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_cost_function_composition() {
        // A cost function may be composed from other model functions
        // (Section 4 of the paper).
        let mut env = Env::new();
        env.define_function(FunctionDef::parse("FBase", &[], "0.5").unwrap());
        env.define_function(FunctionDef::parse("FA1", &["n"], "FBase() * n + 1").unwrap());
        let e = parse_expression("FA1(4)").unwrap();
        assert_eq!(e.eval(&mut env).unwrap(), Value::Num(3.0));
    }

    #[test]
    fn end_to_end_code_fragment() {
        // Figure 7(b): the fragment associated with A1 assigns GV and P.
        let stmts = parse_statements("GV = 1; P = 4;").unwrap();
        let mut env = Env::new();
        env.set_var("GV", Value::Num(0.0));
        env.set_var("P", Value::Num(0.0));
        for s in &stmts {
            s.exec(&mut env).unwrap();
        }
        assert_eq!(env.get_var("GV"), Some(Value::Num(1.0)));
        assert_eq!(env.get_var("P"), Some(Value::Num(4.0)));
    }
}
