//! Evaluation environment: values, variables, user functions, builtins.

use crate::ast::Expr;
use crate::error::{ExprError, ExprResult};
use crate::parser::parse_expression;
use std::collections::HashMap;
use std::sync::Arc;

/// A runtime value of the cost-function language.
///
/// The paper's models use `int`/`double` variables and boolean branch
/// guards; one numeric type (f64) plus booleans covers both without the
/// implicit-conversion pitfalls of C.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Numeric value (models both `int` and `double`).
    Num(f64),
    /// Boolean value (guards).
    Bool(bool),
}

impl Value {
    /// Numeric view; errors on booleans.
    pub fn as_num(self) -> ExprResult<f64> {
        match self {
            Value::Num(n) => Ok(n),
            Value::Bool(_) => Err(ExprError::eval("expected a number, found a boolean")),
        }
    }

    /// Boolean view. Numbers coerce C-style: non-zero is true. This matches
    /// the paper's C++ target semantics for guards like `GV`.
    pub fn truthy(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Num(n) => n != 0.0,
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// A model-defined function (cost function or helper), e.g. `FA1` of the
/// paper's sample model.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Function name (`FA1`, `FK6`, …).
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body expression (the function's return value).
    pub body: Expr,
}

impl FunctionDef {
    /// Create a definition from an already-parsed body.
    pub fn new(name: impl Into<String>, params: Vec<String>, body: Expr) -> Self {
        Self {
            name: name.into(),
            params,
            body,
        }
    }

    /// Parse `body` as the function's return expression.
    pub fn parse(name: &str, params: &[&str], body: &str) -> ExprResult<Self> {
        Ok(Self {
            name: name.to_string(),
            params: params.iter().map(|s| s.to_string()).collect(),
            body: parse_expression(body)?,
        })
    }
}

/// Signature of a builtin: fixed arity table is checked by the evaluator.
pub(crate) type Builtin = fn(&[f64]) -> ExprResult<f64>;

/// The evaluation environment: variable bindings, user-defined functions,
/// and the deterministic builtin table.
///
/// System properties that the paper passes to `execute()` — `uid`, `pid`,
/// `tid`, and machine parameters like `P` (number of processors) — are
/// plain variables set by the estimator before evaluating a cost function.
#[derive(Debug, Clone)]
pub struct Env {
    vars: HashMap<String, Value>,
    /// Shared, so cloning an environment or calling a function never
    /// copies a function body.
    functions: HashMap<String, Arc<FunctionDef>>,
    /// Evaluation guards (shared so nested scopes inherit them).
    pub(crate) max_call_depth: usize,
    pub(crate) max_loop_iters: usize,
}

impl Default for Env {
    fn default() -> Self {
        Self::new()
    }
}

impl Env {
    /// Empty environment with default guards (call depth 64,
    /// 1,000,000 loop iterations).
    pub fn new() -> Self {
        Self {
            vars: HashMap::new(),
            functions: HashMap::new(),
            max_call_depth: 64,
            max_loop_iters: 1_000_000,
        }
    }

    /// Set (or overwrite) a variable.
    pub fn set_var(&mut self, name: impl Into<String>, value: Value) {
        self.vars.insert(name.into(), value);
    }

    /// Set a variable, allocating its name only when it is new (the
    /// evaluator's path for assignments and parameter binding).
    pub fn assign(&mut self, name: &str, value: Value) {
        match self.vars.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.vars.insert(name.to_string(), value);
            }
        }
    }

    /// Convenience: set a numeric variable.
    pub fn set_num(&mut self, name: impl Into<String>, value: f64) {
        self.set_var(name, Value::Num(value));
    }

    /// Read a variable.
    pub fn get_var(&self, name: &str) -> Option<Value> {
        self.vars.get(name).copied()
    }

    /// True if the variable exists.
    pub fn has_var(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    /// Remove a variable (used to pop fragment-local declarations).
    pub fn remove_var(&mut self, name: &str) -> Option<Value> {
        self.vars.remove(name)
    }

    /// Define (or replace) a model function.
    pub fn define_function(&mut self, def: FunctionDef) {
        self.functions.insert(def.name.clone(), Arc::new(def));
    }

    /// Look up a model function.
    pub fn get_function(&self, name: &str) -> Option<&Arc<FunctionDef>> {
        self.functions.get(name)
    }

    /// Iterate over defined functions (unordered).
    pub fn functions(&self) -> impl Iterator<Item = &FunctionDef> {
        self.functions.values().map(|f| &**f)
    }

    /// Number of defined variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Look up a builtin by name, returning `(arity, fn)`.
    pub(crate) fn builtin(name: &str) -> Option<(usize, Builtin)> {
        // All builtins are pure and deterministic, so model evaluation
        // is reproducible.
        let b: (usize, Builtin) = match name {
            "abs" => (1, |a| Ok(a[0].abs())),
            "floor" => (1, |a| Ok(a[0].floor())),
            "ceil" => (1, |a| Ok(a[0].ceil())),
            "round" => (1, |a| Ok(a[0].round())),
            "sqrt" => (1, |a| {
                if a[0] < 0.0 {
                    Err(ExprError::eval(format!("sqrt of negative number {}", a[0])))
                } else {
                    Ok(a[0].sqrt())
                }
            }),
            "exp" => (1, |a| Ok(a[0].exp())),
            "log" => (1, |a| guard_log(a[0], f64::ln)),
            "log2" => (1, |a| guard_log(a[0], f64::log2)),
            "log10" => (1, |a| guard_log(a[0], f64::log10)),
            "sin" => (1, |a| Ok(a[0].sin())),
            "cos" => (1, |a| Ok(a[0].cos())),
            "tanh" => (1, |a| Ok(a[0].tanh())),
            "min" => (2, |a| Ok(a[0].min(a[1]))),
            "max" => (2, |a| Ok(a[0].max(a[1]))),
            "pow" => (2, |a| Ok(a[0].powf(a[1]))),
            "fmod" => (2, |a| {
                if a[1] == 0.0 {
                    Err(ExprError::eval("fmod by zero"))
                } else {
                    Ok(a[0] % a[1])
                }
            }),
            _ => return None,
        };
        Some(b)
    }

    /// Names of all builtins (for diagnostics and the checker).
    pub fn builtin_names() -> &'static [&'static str] {
        &[
            "abs", "floor", "ceil", "round", "sqrt", "exp", "log", "log2", "log10", "sin", "cos",
            "tanh", "min", "max", "pow", "fmod",
        ]
    }
}

fn guard_log(x: f64, f: fn(f64) -> f64) -> ExprResult<f64> {
    if x <= 0.0 {
        Err(ExprError::eval(format!(
            "logarithm of non-positive number {x}"
        )))
    } else {
        Ok(f(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Num(2.0).as_num().unwrap(), 2.0);
        assert!(Value::Bool(true).as_num().is_err());
        assert!(Value::Num(1.0).truthy());
        assert!(!Value::Num(0.0).truthy());
        assert!(Value::Bool(true).truthy());
    }

    #[test]
    fn env_vars() {
        let mut env = Env::new();
        env.set_num("P", 16.0);
        assert_eq!(env.get_var("P"), Some(Value::Num(16.0)));
        assert!(env.has_var("P"));
        env.remove_var("P");
        assert!(!env.has_var("P"));
    }

    #[test]
    fn assign_overwrites_or_inserts() {
        let mut env = Env::new();
        env.assign("P", Value::Num(2.0));
        env.assign("P", Value::Num(3.0));
        assert_eq!(env.get_var("P"), Some(Value::Num(3.0)));
        assert_eq!(env.var_count(), 1);
    }

    #[test]
    fn builtins_present_and_consistent() {
        for name in Env::builtin_names() {
            assert!(Env::builtin(name).is_some(), "missing builtin {name}");
        }
        assert!(Env::builtin("nope").is_none());
    }

    #[test]
    fn builtin_guards() {
        let (_, sqrt) = Env::builtin("sqrt").unwrap();
        assert!(sqrt(&[-1.0]).is_err());
        let (_, log) = Env::builtin("log").unwrap();
        assert!(log(&[0.0]).is_err());
        let (_, fmod) = Env::builtin("fmod").unwrap();
        assert!(fmod(&[1.0, 0.0]).is_err());
        assert_eq!(fmod(&[7.0, 4.0]).unwrap(), 3.0);
    }

    #[test]
    fn function_def_parse() {
        let f = FunctionDef::parse("FA1", &["x"], "x * 2 + 1").unwrap();
        assert_eq!(f.params, vec!["x"]);
        assert_eq!(f.body.to_string(), "x * 2 + 1");
    }
}
