//! Resolved expressions: the evaluator elaboration runs.
//!
//! A [`Scope`] resolves names once, ahead of evaluation: every variable
//! a program can read or bind becomes a [`Slot`] (an index into a
//! [`Frame`]), every call to a model function becomes a function index,
//! and every call to a builtin becomes a [`Builtin`]. Evaluation then
//! reads and writes the frame by index, with no name lookup and no
//! allocation.
//!
//! The semantics are those of the name-keyed reference evaluator
//! ([`crate::eval`] over [`crate::Env`]), value for value and error for
//! error:
//!
//! * **One flat, dynamically scoped frame.** A slot holds `None` until
//!   something binds it, and reading it then fails with "undefined
//!   variable". Fragment declarations (`var x = …`) bind like
//!   assignments and outlive their fragment.
//! * **Calls bind parameters in place.** A call evaluates its arguments,
//!   swaps each into its parameter's slot (the shadowed values wait on
//!   the frame's save stack), evaluates the body one level deeper and
//!   swaps the shadowed values back, also when the body fails.
//! * **Static errors stay lazy.** A call to an undefined function, or
//!   with the wrong number of arguments, resolves to a node that fails
//!   with the reference's text when (and only when) it is evaluated.
//! * **Constant folding never changes a result.** A subexpression whose
//!   operands are all constants is evaluated once, at resolution time,
//!   by the evaluator itself, so the folded value is bit-identical. A
//!   fold that would fail is left in place, so an untaken branch never
//!   fails. Calls to model functions are never folded: they count toward
//!   the call depth.

use crate::ast::{BinOp, Expr, Stmt, UnOp};
use crate::builtin::Builtin;
use crate::env::{FunctionDef, Value};
use crate::error::{ExprError, ExprResult};
use std::collections::HashMap;

/// Maximum nesting of model-function calls (recursive cost functions
/// fail cleanly past it).
pub const MAX_CALL_DEPTH: usize = 64;

/// Maximum iterations of one `while` loop in a code fragment.
pub const MAX_LOOP_ITERS: usize = 1_000_000;

/// Index of a variable in a [`Frame`].
pub type Slot = u32;

/// An expression with its names resolved by a [`Scope`].
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// A literal, or a folded constant subexpression.
    Const(Value),
    /// Read a variable's slot.
    Var(Slot),
    /// Unary operation.
    Unary(UnOp, Box<RExpr>),
    /// Binary operation (`&&` and `||` short-circuit).
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    /// Conditional `cond ? then : else`.
    Cond(Box<RExpr>, Box<RExpr>, Box<RExpr>),
    /// Builtin call; the arity is already checked.
    Builtin(Builtin, Box<[RExpr]>),
    /// Model-function call by index; the arity is already checked.
    Call(u32, Box<[RExpr]>),
    /// A call that fails with this message when evaluated (undefined
    /// function, wrong arity).
    Fail(Box<str>),
}

/// A code-fragment statement with its names resolved by a [`Scope`].
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// `var x = e;` or `x = e;`: both bind the slot.
    Set(Slot, RExpr),
    /// Expression evaluated for its errors.
    Expr(RExpr),
    /// `if (c) { … } else { … }`.
    If(RExpr, Box<[RStmt]>, Box<[RStmt]>),
    /// `while (c) { … }`, limited to [`MAX_LOOP_ITERS`] iterations.
    While(RExpr, Box<[RStmt]>),
}

#[derive(Debug, Clone)]
struct Function {
    params: Box<[Slot]>,
    body: RExpr,
}

/// The names of one program, resolved: variable slots, model functions
/// and the resolver that produces [`RExpr`]s and [`RStmt`]s against them.
///
/// Resolve everything first, then evaluate: a [`Frame`] from
/// [`Scope::frame`] has one slot per name resolved so far.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    slots: HashMap<String, Slot>,
    /// Slot → name, for "undefined variable" errors.
    names: Vec<Box<str>>,
    function_index: HashMap<String, u32>,
    functions: Vec<Function>,
}

impl Scope {
    /// A scope defining `functions`. A later definition of a name
    /// replaces an earlier one; builtins cannot be replaced.
    pub fn new(functions: &[FunctionDef]) -> Self {
        let mut scope = Scope::default();
        for (i, f) in functions.iter().enumerate() {
            scope.function_index.insert(f.name.clone(), i as u32);
            let params = f.params.iter().map(|p| scope.slot(p)).collect();
            scope.functions.push(Function {
                params,
                body: RExpr::Const(Value::Num(0.0)),
            });
        }
        // Bodies resolve once every function has an index, so functions
        // may call each other (and themselves) in any order.
        for (i, f) in functions.iter().enumerate() {
            scope.functions[i].body = scope.expr(&f.body);
        }
        scope
    }

    /// The slot of variable `name`, allocated on first use.
    pub fn slot(&mut self, name: &str) -> Slot {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.names.len() as Slot;
        self.slots.insert(name.to_string(), s);
        self.names.push(name.into());
        s
    }

    /// A frame with every slot unbound.
    pub fn frame(&self) -> Frame {
        Frame {
            slots: vec![None; self.names.len()],
            saved: Vec::new(),
        }
    }

    /// Resolve `e`, folding constant subexpressions.
    pub fn expr(&mut self, e: &Expr) -> RExpr {
        let node = match e {
            Expr::Num(n) => return RExpr::Const(Value::Num(*n)),
            Expr::Bool(b) => return RExpr::Const(Value::Bool(*b)),
            Expr::Var(name) => return RExpr::Var(self.slot(name)),
            Expr::Unary(op, a) => RExpr::Unary(*op, Box::new(self.expr(a))),
            Expr::Binary(op, a, b) => {
                RExpr::Binary(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            Expr::Cond(c, t, f) => {
                return match self.expr(c) {
                    RExpr::Const(v) if v.truthy() => self.expr(t),
                    RExpr::Const(_) => self.expr(f),
                    c => RExpr::Cond(Box::new(c), Box::new(self.expr(t)), Box::new(self.expr(f))),
                }
            }
            Expr::Call(name, args) => self.call(name, args),
        };
        self.fold(node)
    }

    /// `node` evaluated now, when the operands it reads are constants and
    /// the evaluation succeeds; otherwise `node` itself. Folding runs the
    /// evaluator, so a folded value is the value evaluation would give.
    fn fold(&self, node: RExpr) -> RExpr {
        let constant = |e: &RExpr| matches!(e, RExpr::Const(_));
        let foldable = match &node {
            RExpr::Unary(_, a) => constant(a),
            // `&&` and `||` need no right operand when the left decides.
            RExpr::Binary(op, a, b) => match **a {
                RExpr::Const(v) => {
                    constant(b)
                        || (*op == BinOp::And && !v.truthy())
                        || (*op == BinOp::Or && v.truthy())
                }
                _ => false,
            },
            RExpr::Builtin(_, args) => args.iter().all(constant),
            _ => false,
        };
        if foldable {
            if let Ok(v) = self.eval_at(&node, &mut Frame::default(), 0) {
                return RExpr::Const(v);
            }
        }
        node
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> RExpr {
        if let Some(b) = Builtin::from_name(name) {
            if args.len() != b.arity() {
                return RExpr::Fail(
                    format!(
                        "builtin `{name}` expects {} argument(s), got {}",
                        b.arity(),
                        args.len()
                    )
                    .into(),
                );
            }
            return RExpr::Builtin(b, args.iter().map(|a| self.expr(a)).collect());
        }
        let Some(&index) = self.function_index.get(name) else {
            return RExpr::Fail(format!("undefined function `{name}`").into());
        };
        let arity = self.functions[index as usize].params.len();
        if args.len() != arity {
            return RExpr::Fail(
                format!(
                    "function `{name}` expects {arity} argument(s), got {}",
                    args.len()
                )
                .into(),
            );
        }
        RExpr::Call(index, args.iter().map(|a| self.expr(a)).collect())
    }

    /// Resolve a code fragment.
    pub fn fragment(&mut self, stmts: &[Stmt]) -> Box<[RStmt]> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> RStmt {
        match s {
            Stmt::Decl(name, e) | Stmt::Assign(name, e) => {
                let e = self.expr(e);
                RStmt::Set(self.slot(name), e)
            }
            Stmt::Expr(e) => RStmt::Expr(self.expr(e)),
            Stmt::If(c, t, e) => RStmt::If(self.expr(c), self.fragment(t), self.fragment(e)),
            Stmt::While(c, b) => RStmt::While(self.expr(c), self.fragment(b)),
        }
    }

    /// Evaluate `e` over `frame`.
    pub fn eval(&self, e: &RExpr, frame: &mut Frame) -> ExprResult<Value> {
        self.eval_at(e, frame, 0)
    }

    /// Execute a fragment over `frame`, in order.
    pub fn exec(&self, stmts: &[RStmt], frame: &mut Frame) -> ExprResult<()> {
        for s in stmts {
            self.exec_stmt(s, frame)?;
        }
        Ok(())
    }

    fn eval_at(&self, e: &RExpr, f: &mut Frame, depth: usize) -> ExprResult<Value> {
        match e {
            RExpr::Const(v) => Ok(*v),
            RExpr::Var(s) => match f.slots[*s as usize] {
                Some(v) => Ok(v),
                None => Err(ExprError::eval(format!(
                    "undefined variable `{}`",
                    self.names[*s as usize]
                ))),
            },
            RExpr::Unary(op, a) => unary(*op, self.eval_at(a, f, depth)?),
            RExpr::Binary(BinOp::And, a, b) => Ok(Value::Bool(
                self.eval_at(a, f, depth)?.truthy() && self.eval_at(b, f, depth)?.truthy(),
            )),
            RExpr::Binary(BinOp::Or, a, b) => Ok(Value::Bool(
                self.eval_at(a, f, depth)?.truthy() || self.eval_at(b, f, depth)?.truthy(),
            )),
            RExpr::Binary(op, a, b) => {
                let x = self.eval_at(a, f, depth)?;
                let y = self.eval_at(b, f, depth)?;
                binary(*op, x, y)
            }
            RExpr::Cond(c, t, e) => {
                if self.eval_at(c, f, depth)?.truthy() {
                    self.eval_at(t, f, depth)
                } else {
                    self.eval_at(e, f, depth)
                }
            }
            RExpr::Builtin(b, args) => {
                let mut x = [0.0; 2];
                for (slot, a) in x.iter_mut().zip(&**args) {
                    *slot = self.eval_at(a, f, depth)?.as_num()?;
                }
                b.apply(&x).map(Value::Num)
            }
            RExpr::Call(index, args) => self.call_at(*index, args, f, depth),
            RExpr::Fail(message) => Err(ExprError::eval(&**message)),
        }
    }

    fn call_at(
        &self,
        index: u32,
        args: &[RExpr],
        f: &mut Frame,
        depth: usize,
    ) -> ExprResult<Value> {
        let func = &self.functions[index as usize];
        let base = f.saved.len();
        for a in args {
            match self.eval_at(a, f, depth) {
                Ok(v) => f.saved.push(Some(v)),
                Err(e) => {
                    f.saved.truncate(base);
                    return Err(e);
                }
            }
        }
        // Bind by swapping: each parameter's shadowed value takes its
        // argument's place on the save stack. Binding and restoring run
        // in the same order, so a repeated parameter name ends as the
        // reference's does.
        for (k, &p) in func.params.iter().enumerate() {
            std::mem::swap(&mut f.slots[p as usize], &mut f.saved[base + k]);
        }
        let result = if depth + 1 > MAX_CALL_DEPTH {
            Err(ExprError::eval(format!(
                "call depth exceeded {MAX_CALL_DEPTH} (recursive cost function?)"
            )))
        } else {
            self.eval_at(&func.body, f, depth + 1)
        };
        for (k, &p) in func.params.iter().enumerate() {
            f.slots[p as usize] = f.saved[base + k];
        }
        f.saved.truncate(base);
        result
    }

    fn exec_stmt(&self, s: &RStmt, f: &mut Frame) -> ExprResult<()> {
        match s {
            RStmt::Set(slot, e) => {
                let v = self.eval_at(e, f, 0)?;
                f.slots[*slot as usize] = Some(v);
            }
            RStmt::Expr(e) => {
                self.eval_at(e, f, 0)?;
            }
            RStmt::If(c, then, els) => {
                let branch = if self.eval_at(c, f, 0)?.truthy() {
                    then
                } else {
                    els
                };
                self.exec(branch, f)?;
            }
            RStmt::While(c, body) => {
                let mut iters = 0usize;
                while self.eval_at(c, f, 0)?.truthy() {
                    iters += 1;
                    if iters > MAX_LOOP_ITERS {
                        return Err(ExprError::eval(format!(
                            "while loop exceeded {MAX_LOOP_ITERS} iterations"
                        )));
                    }
                    self.exec(body, f)?;
                }
            }
        }
        Ok(())
    }
}

/// The variable bindings of one evaluation: one `Option<Value>` per
/// [`Slot`] of a [`Scope`], plus the stack calls save shadowed
/// parameter values on. Copying a frame copies one flat vector.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    slots: Vec<Option<Value>>,
    saved: Vec<Option<Value>>,
}

impl Frame {
    /// The value bound to `slot`, if any.
    pub fn get(&self, slot: Slot) -> Option<Value> {
        self.slots[slot as usize]
    }

    /// Bind `slot` to `value`.
    pub fn set(&mut self, slot: Slot, value: Value) {
        self.slots[slot as usize] = Some(value);
    }

    /// Put back a binding read earlier by [`Frame::get`] (unbinding the
    /// slot when it was unbound).
    pub fn restore(&mut self, slot: Slot, value: Option<Value>) {
        self.slots[slot as usize] = value;
    }
}

/// A unary operator applied to a value; shared by both evaluators.
pub(crate) fn unary(op: UnOp, v: Value) -> ExprResult<Value> {
    Ok(match op {
        UnOp::Neg => Value::Num(-v.as_num()?),
        UnOp::Not => Value::Bool(!v.truthy()),
    })
}

/// A binary operator applied to two evaluated operands; shared by both
/// evaluators. (`&&` and `||` short-circuit in the evaluators and reach
/// this only with both sides evaluated.)
pub(crate) fn binary(op: BinOp, va: Value, vb: Value) -> ExprResult<Value> {
    // Equality works on like kinds; ordering and arithmetic are numeric.
    match op {
        BinOp::And => return Ok(Value::Bool(va.truthy() && vb.truthy())),
        BinOp::Or => return Ok(Value::Bool(va.truthy() || vb.truthy())),
        BinOp::Eq | BinOp::Ne => {
            let eq = match (va, vb) {
                (Value::Num(x), Value::Num(y)) => x == y,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                _ => return Err(ExprError::eval("cannot compare a number with a boolean")),
            };
            return Ok(Value::Bool(if op == BinOp::Eq { eq } else { !eq }));
        }
        _ => {}
    }
    let x = va.as_num()?;
    let y = vb.as_num()?;
    Ok(match op {
        BinOp::Add => Value::Num(x + y),
        BinOp::Sub => Value::Num(x - y),
        BinOp::Mul => Value::Num(x * y),
        BinOp::Div => {
            if y == 0.0 {
                return Err(ExprError::eval("division by zero"));
            }
            Value::Num(x / y)
        }
        BinOp::Rem => {
            if y == 0.0 {
                return Err(ExprError::eval("remainder by zero"));
            }
            Value::Num(x % y)
        }
        BinOp::Pow => Value::Num(x.powf(y)),
        BinOp::Lt => Value::Bool(x < y),
        BinOp::Le => Value::Bool(x <= y),
        BinOp::Gt => Value::Bool(x > y),
        BinOp::Ge => Value::Bool(x >= y),
        BinOp::And | BinOp::Or | BinOp::Eq | BinOp::Ne => unreachable!("handled above"),
    })
}
