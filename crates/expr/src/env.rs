//! Values, function definitions, and the name-keyed environment of the
//! reference evaluator ([`crate::eval`]).

use crate::ast::Expr;
use crate::error::{ExprError, ExprResult};
use crate::parser::parse_expression;
use crate::resolved::{MAX_CALL_DEPTH, MAX_LOOP_ITERS};
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

/// The name-keyed environment of the reference evaluator: variable
/// bindings and user-defined functions, looked up by name.
///
/// Production evaluation resolves names to slots once instead
/// ([`crate::resolved::Scope`]); this environment is the oracle the
/// resolved engine is tested against, value for value and error for
/// error.
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
    /// Empty environment with the default guards
    /// ([`MAX_CALL_DEPTH`] calls, [`MAX_LOOP_ITERS`] loop iterations).
    pub fn new() -> Self {
        Self {
            vars: HashMap::new(),
            functions: HashMap::new(),
            max_call_depth: MAX_CALL_DEPTH,
            max_loop_iters: MAX_LOOP_ITERS,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::Builtin;

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
        for (name, b) in crate::builtin::ALL {
            assert_eq!(Builtin::from_name(name), Some(b), "builtin {name}");
        }
        assert!(Builtin::from_name("nope").is_none());
    }

    #[test]
    fn builtin_guards() {
        assert!(Builtin::Sqrt.apply(&[-1.0]).is_err());
        assert!(Builtin::Log.apply(&[0.0]).is_err());
        assert!(Builtin::Fmod.apply(&[1.0, 0.0]).is_err());
        assert_eq!(Builtin::Fmod.apply(&[7.0, 4.0]).unwrap(), 3.0);
    }

    #[test]
    fn function_def_parse() {
        let f = FunctionDef::parse("FA1", &["x"], "x * 2 + 1").unwrap();
        assert_eq!(f.params, vec!["x"]);
        assert_eq!(f.body.to_string(), "x * 2 + 1");
    }
}
