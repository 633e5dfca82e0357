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
//! * [`ast`] — expression and statement trees,
//! * [`mod@env`] — evaluation environment (variables, user functions,
//!   deterministic builtins),
//! * [`eval`] — tree-walking evaluator with recursion/iteration limits,
//! * [`cpp`] — C++ emission used by the PMP generator, so the emitted
//!   model text matches the paper's Figure 8 listing shape.
//!
//! ## Quickstart
//!
//! ```
//! use prophet_expr::{parse_expression, Env, Value};
//!
//! let e = parse_expression("0.04 + 0.01 * log2(P)").unwrap();
//! let mut env = Env::new();
//! env.set_var("P", Value::Num(8.0));
//! assert!((e.eval(&mut env).unwrap().as_num().unwrap() - 0.07).abs() < 1e-12);
//! ```

pub mod ast;
pub mod cpp;
pub mod env;
pub mod error;
pub mod eval;
pub mod parser;
pub mod token;

pub use ast::{BinOp, Expr, Stmt, UnOp};
pub use env::{Env, FunctionDef, Value};
pub use error::{ExprError, ExprResult};
pub use eval::exec_fragment;
pub use parser::{parse_expression, parse_statements, Parser};
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
