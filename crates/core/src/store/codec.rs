//! The binary payload codec of the artifact store: a hand-rolled,
//! dependency-free, length-prefixed encoding of everything a compiled
//! [`Session`](crate::Session) owns.
//!
//! Design rules:
//!
//! * **Bounds-checked decode, no panics.** Every read checks the
//!   remaining byte budget first; every count is validated against the
//!   minimum encoded size of its element type, and pre-allocations are
//!   additionally capped (collections grow normally past the cap), so
//!   a crafted payload cannot amplify file size into memory. A corrupt
//!   payload yields a [`DecodeError`] — which the store treats as a
//!   cache miss — never an abort. (The store also checksums the payload
//!   before decoding, so in practice decode errors mean a format
//!   mismatch, not random corruption.)
//! * **Deterministic encode.** The same session serializes to the same
//!   bytes — collections are written in their in-memory order, which is
//!   deterministic for compile artifacts, and the store sorts
//!   elaboration entries before encoding.
//! * **Tag-per-variant.** Enums are a `u8` tag followed by the
//!   variant's fields; unknown tags are decode errors (a newer format
//!   must bump [`super::FORMAT_VERSION`], which reads as a clean miss).
//!
//! The float encoding is by IEEE-754 bit pattern (`to_bits`), so
//! predictions from a loaded artifact are bit-identical to predictions
//! from the freshly compiled session it was saved from.

use prophet_check::{Diagnostic, Severity};
use prophet_estimator::{
    ElabEntry, Elaboration, ElementId, ElementNames, FlattenLimits, MpiOp, PrimOp, Program, Step,
};
use prophet_expr::{Expr, FunctionDef, Stmt};
use prophet_machine::{CommParams, SystemParams};
use std::sync::Arc;

/// A payload that failed to decode (wrong tag, short buffer,
/// over-long count). Carries a description for diagnostics; the store
/// maps any decode error to "miss + evict".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "artifact payload does not decode: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err<T>(what: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError(what.into()))
}

/// Cap pre-allocations from decoded counts: a count is validated
/// against the remaining bytes (see [`Reader::count`]), but a crafted
/// payload can still claim many minimum-size elements, so collections
/// start at a bounded capacity and grow normally past it.
fn cap(n: usize) -> usize {
    n.min(1024)
}

// ---------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------

/// Append-only byte writer (all integers little-endian).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Element count of a collection about to be written.
    fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

/// Bounds-checked byte reader over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte has been consumed (trailing garbage is
    /// a format violation, not padding).
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            err(format!("{} trailing bytes", self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return err(format!("need {n} bytes, {} remain", self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).or_else(|_| err(format!("value {v} exceeds usize")))
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => err(format!("bad bool byte {other}")),
        }
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        Ok(self.utf8()?.to_string())
    }

    fn utf8(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).or_else(|_| err("non-UTF-8 string"))
    }

    /// A step's element name (same encoding as a string).
    fn name(&mut self) -> Result<Arc<str>, DecodeError> {
        Ok(self.utf8()?.into())
    }

    /// An op's element name (same encoding as a string), as its id in
    /// `names`, the table of the program the ops were elaborated from.
    fn element(&mut self, names: &ElementNames) -> Result<ElementId, DecodeError> {
        let s = self.utf8()?;
        names
            .id(s)
            .ok_or_else(|| DecodeError(format!("op names unknown element `{s}`")))
    }

    /// Element count of a collection, validated against the remaining
    /// bytes: every element needs at least `min_item_bytes` (≥ 1), so a
    /// count the buffer cannot possibly back is rejected before any
    /// allocation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n * min_item_bytes.max(1) > self.remaining() {
            return err(format!("count {n} exceeds remaining bytes"));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Expression / statement trees (prophet-expr)
// ---------------------------------------------------------------------

fn put_expr(w: &mut Writer, e: &Expr) {
    match e {
        Expr::Num(n) => {
            w.u8(0);
            w.f64(*n);
        }
        Expr::Bool(b) => {
            w.u8(1);
            w.bool(*b);
        }
        Expr::Var(name) => {
            w.u8(2);
            w.str(name);
        }
        Expr::Unary(op, a) => {
            w.u8(3);
            w.u8(*op as u8);
            put_expr(w, a);
        }
        Expr::Binary(op, a, b) => {
            w.u8(4);
            w.u8(*op as u8);
            put_expr(w, a);
            put_expr(w, b);
        }
        Expr::Cond(c, t, f) => {
            w.u8(5);
            put_expr(w, c);
            put_expr(w, t);
            put_expr(w, f);
        }
        Expr::Call(name, args) => {
            w.u8(6);
            w.str(name);
            w.count(args.len());
            for a in args {
                put_expr(w, a);
            }
        }
    }
}

fn get_expr(r: &mut Reader<'_>) -> Result<Expr, DecodeError> {
    use prophet_expr::{BinOp, UnOp};
    Ok(match r.u8()? {
        0 => Expr::Num(r.f64()?),
        1 => Expr::Bool(r.bool()?),
        2 => Expr::Var(r.str()?),
        3 => {
            let op = match r.u8()? {
                0 => UnOp::Neg,
                1 => UnOp::Not,
                t => return err(format!("bad unary-op tag {t}")),
            };
            Expr::Unary(op, Box::new(get_expr(r)?))
        }
        4 => {
            let op = match r.u8()? {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Div,
                4 => BinOp::Rem,
                5 => BinOp::Pow,
                6 => BinOp::Eq,
                7 => BinOp::Ne,
                8 => BinOp::Lt,
                9 => BinOp::Le,
                10 => BinOp::Gt,
                11 => BinOp::Ge,
                12 => BinOp::And,
                13 => BinOp::Or,
                t => return err(format!("bad binary-op tag {t}")),
            };
            let a = get_expr(r)?;
            let b = get_expr(r)?;
            Expr::Binary(op, Box::new(a), Box::new(b))
        }
        5 => {
            let c = get_expr(r)?;
            let t = get_expr(r)?;
            let f = get_expr(r)?;
            Expr::Cond(Box::new(c), Box::new(t), Box::new(f))
        }
        6 => {
            let name = r.str()?;
            let n = r.count(2)?;
            let mut args = Vec::with_capacity(cap(n));
            for _ in 0..n {
                args.push(get_expr(r)?);
            }
            Expr::Call(name, args)
        }
        t => return err(format!("bad expr tag {t}")),
    })
}

fn put_opt_expr(w: &mut Writer, e: &Option<Expr>) {
    match e {
        None => w.u8(0),
        Some(e) => {
            w.u8(1);
            put_expr(w, e);
        }
    }
}

fn get_opt_expr(r: &mut Reader<'_>) -> Result<Option<Expr>, DecodeError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(get_expr(r)?),
        t => return err(format!("bad option tag {t}")),
    })
}

fn put_stmts(w: &mut Writer, stmts: &[Stmt]) {
    w.count(stmts.len());
    for s in stmts {
        put_stmt(w, s);
    }
}

fn get_stmts(r: &mut Reader<'_>) -> Result<Vec<Stmt>, DecodeError> {
    let n = r.count(3)?;
    let mut out = Vec::with_capacity(cap(n));
    for _ in 0..n {
        out.push(get_stmt(r)?);
    }
    Ok(out)
}

fn put_stmt(w: &mut Writer, s: &Stmt) {
    match s {
        Stmt::Decl(name, e) => {
            w.u8(0);
            w.str(name);
            put_expr(w, e);
        }
        Stmt::Assign(name, e) => {
            w.u8(1);
            w.str(name);
            put_expr(w, e);
        }
        Stmt::Expr(e) => {
            w.u8(2);
            put_expr(w, e);
        }
        Stmt::If(c, t, f) => {
            w.u8(3);
            put_expr(w, c);
            put_stmts(w, t);
            put_stmts(w, f);
        }
        Stmt::While(c, b) => {
            w.u8(4);
            put_expr(w, c);
            put_stmts(w, b);
        }
    }
}

fn get_stmt(r: &mut Reader<'_>) -> Result<Stmt, DecodeError> {
    Ok(match r.u8()? {
        0 => Stmt::Decl(r.str()?, get_expr(r)?),
        1 => Stmt::Assign(r.str()?, get_expr(r)?),
        2 => Stmt::Expr(get_expr(r)?),
        3 => {
            let c = get_expr(r)?;
            let t = get_stmts(r)?;
            let f = get_stmts(r)?;
            Stmt::If(c, t, f)
        }
        4 => {
            let c = get_expr(r)?;
            let b = get_stmts(r)?;
            Stmt::While(c, b)
        }
        t => return err(format!("bad stmt tag {t}")),
    })
}

// ---------------------------------------------------------------------
// Program IR (prophet-estimator)
// ---------------------------------------------------------------------

fn put_mpi_op(w: &mut Writer, op: &MpiOp) {
    match op {
        MpiOp::Send { dest, size, tag } => {
            w.u8(0);
            put_expr(w, dest);
            put_expr(w, size);
            w.i64(*tag);
        }
        MpiOp::Recv { src, tag } => {
            w.u8(1);
            put_expr(w, src);
            w.i64(*tag);
        }
        MpiOp::Broadcast { root, size } => {
            w.u8(2);
            put_expr(w, root);
            put_expr(w, size);
        }
        MpiOp::Reduce { root, size } => {
            w.u8(3);
            put_expr(w, root);
            put_expr(w, size);
        }
        MpiOp::Allreduce { size } => {
            w.u8(4);
            put_expr(w, size);
        }
        MpiOp::Scatter { root, size } => {
            w.u8(5);
            put_expr(w, root);
            put_expr(w, size);
        }
        MpiOp::Gather { root, size } => {
            w.u8(6);
            put_expr(w, root);
            put_expr(w, size);
        }
        MpiOp::Barrier => w.u8(7),
    }
}

fn get_mpi_op(r: &mut Reader<'_>) -> Result<MpiOp, DecodeError> {
    Ok(match r.u8()? {
        0 => MpiOp::Send {
            dest: get_expr(r)?,
            size: get_expr(r)?,
            tag: r.i64()?,
        },
        1 => MpiOp::Recv {
            src: get_expr(r)?,
            tag: r.i64()?,
        },
        2 => MpiOp::Broadcast {
            root: get_expr(r)?,
            size: get_expr(r)?,
        },
        3 => MpiOp::Reduce {
            root: get_expr(r)?,
            size: get_expr(r)?,
        },
        4 => MpiOp::Allreduce { size: get_expr(r)? },
        5 => MpiOp::Scatter {
            root: get_expr(r)?,
            size: get_expr(r)?,
        },
        6 => MpiOp::Gather {
            root: get_expr(r)?,
            size: get_expr(r)?,
        },
        7 => MpiOp::Barrier,
        t => return err(format!("bad mpi-op tag {t}")),
    })
}

fn put_step(w: &mut Writer, s: &Step) {
    match s {
        Step::Exec { name, cost, code } => {
            w.u8(0);
            w.str(name);
            put_opt_expr(w, cost);
            put_stmts(w, code);
        }
        Step::Seq(items) => {
            w.u8(1);
            w.count(items.len());
            for s in items {
                put_step(w, s);
            }
        }
        Step::Branch(arms) => {
            w.u8(2);
            w.count(arms.len());
            for (guard, step) in arms {
                put_opt_expr(w, guard);
                put_step(w, step);
            }
        }
        Step::Parallel(arms) => {
            w.u8(3);
            w.count(arms.len());
            for s in arms {
                put_step(w, s);
            }
        }
        Step::Composite { name, body } => {
            w.u8(4);
            w.str(name);
            put_step(w, body);
        }
        Step::Loop {
            name,
            count,
            var,
            body,
        } => {
            w.u8(5);
            w.str(name);
            put_expr(w, count);
            match var {
                None => w.u8(0),
                Some(v) => {
                    w.u8(1);
                    w.str(v);
                }
            }
            put_step(w, body);
        }
        Step::ParallelRegion {
            name,
            threads,
            body,
        } => {
            w.u8(6);
            w.str(name);
            put_opt_expr(w, threads);
            put_step(w, body);
        }
        Step::Critical { name, lock, body } => {
            w.u8(7);
            w.str(name);
            w.str(lock);
            put_step(w, body);
        }
        Step::Mpi { name, op } => {
            w.u8(8);
            w.str(name);
            put_mpi_op(w, op);
        }
        Step::Nop => w.u8(9),
    }
}

fn get_step(r: &mut Reader<'_>) -> Result<Step, DecodeError> {
    Ok(match r.u8()? {
        0 => Step::Exec {
            name: r.name()?,
            cost: get_opt_expr(r)?,
            code: get_stmts(r)?,
        },
        1 => {
            let n = r.count(1)?;
            let mut items = Vec::with_capacity(cap(n));
            for _ in 0..n {
                items.push(get_step(r)?);
            }
            Step::Seq(items)
        }
        2 => {
            let n = r.count(2)?;
            let mut arms = Vec::with_capacity(cap(n));
            for _ in 0..n {
                let guard = get_opt_expr(r)?;
                let step = get_step(r)?;
                arms.push((guard, step));
            }
            Step::Branch(arms)
        }
        3 => {
            let n = r.count(1)?;
            let mut arms = Vec::with_capacity(cap(n));
            for _ in 0..n {
                arms.push(get_step(r)?);
            }
            Step::Parallel(arms)
        }
        4 => Step::Composite {
            name: r.name()?,
            body: Box::new(get_step(r)?),
        },
        5 => {
            let name = r.name()?;
            let count = get_expr(r)?;
            let var = match r.u8()? {
                0 => None,
                1 => Some(r.str()?),
                t => return err(format!("bad option tag {t}")),
            };
            Step::Loop {
                name,
                count,
                var,
                body: Box::new(get_step(r)?),
            }
        }
        6 => Step::ParallelRegion {
            name: r.name()?,
            threads: get_opt_expr(r)?,
            body: Box::new(get_step(r)?),
        },
        7 => Step::Critical {
            name: r.name()?,
            lock: r.str()?,
            body: Box::new(get_step(r)?),
        },
        8 => Step::Mpi {
            name: r.name()?,
            op: get_mpi_op(r)?,
        },
        9 => Step::Nop,
        t => return err(format!("bad step tag {t}")),
    })
}

/// Encode a [`Program`] into `w`.
pub fn put_program(w: &mut Writer, p: &Program) {
    w.str(&p.name);
    w.count(p.globals.len());
    for (name, v) in &p.globals {
        w.str(name);
        w.f64(*v);
    }
    w.count(p.locals.len());
    for (name, v) in &p.locals {
        w.str(name);
        w.f64(*v);
    }
    w.count(p.functions.len());
    for f in &p.functions {
        w.str(&f.name);
        w.count(f.params.len());
        for param in &f.params {
            w.str(param);
        }
        put_expr(w, &f.body);
    }
    put_step(w, &p.body);
}

/// Decode a [`Program`] from `r`.
pub fn get_program(r: &mut Reader<'_>) -> Result<Program, DecodeError> {
    let mut p = Program::new(r.str()?);
    let n = r.count(12)?;
    for _ in 0..n {
        p.globals.push((r.str()?, r.f64()?));
    }
    let n = r.count(12)?;
    for _ in 0..n {
        p.locals.push((r.str()?, r.f64()?));
    }
    let n = r.count(10)?;
    for _ in 0..n {
        let name = r.str()?;
        let pc = r.count(4)?;
        let mut params = Vec::with_capacity(cap(pc));
        for _ in 0..pc {
            params.push(r.str()?);
        }
        let body = get_expr(r)?;
        p.functions.push(FunctionDef::new(name, params, body));
    }
    p.body = get_step(r)?;
    Ok(p)
}

// ---------------------------------------------------------------------
// Diagnostics + C++ unit
// ---------------------------------------------------------------------

/// Encode the compile diagnostics into `w`.
pub fn put_diagnostics(w: &mut Writer, diags: &[Diagnostic]) {
    w.count(diags.len());
    for d in diags {
        w.str(&d.rule);
        w.u8(match d.severity {
            Severity::Error => 0,
            Severity::Warning => 1,
        });
        w.str(&d.location);
        w.str(&d.message);
    }
}

/// Decode the compile diagnostics from `r`.
pub fn get_diagnostics(r: &mut Reader<'_>) -> Result<Vec<Diagnostic>, DecodeError> {
    let n = r.count(13)?;
    let mut out = Vec::with_capacity(cap(n));
    for _ in 0..n {
        let rule = r.str()?;
        let severity = match r.u8()? {
            0 => Severity::Error,
            1 => Severity::Warning,
            t => return err(format!("bad severity tag {t}")),
        };
        out.push(Diagnostic {
            rule,
            severity,
            location: r.str()?,
            message: r.str()?,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Elaboration entries (pre-flattened op lists)
// ---------------------------------------------------------------------

fn put_prim_op(w: &mut Writer, names: &ElementNames, op: &PrimOp) {
    match op {
        PrimOp::Enter(name) => {
            w.u8(0);
            w.str(names.name(*name));
        }
        PrimOp::Exit(name) => {
            w.u8(1);
            w.str(names.name(*name));
        }
        PrimOp::Compute { element, seconds } => {
            w.u8(2);
            w.str(names.name(*element));
            w.f64(*seconds);
        }
        PrimOp::SendTo {
            element,
            dest,
            bytes,
            tag,
        } => {
            w.u8(3);
            w.str(names.name(*element));
            w.usize(*dest);
            w.u64(*bytes);
            w.i64(*tag);
        }
        PrimOp::RecvFrom {
            element,
            src,
            tag,
            bytes,
        } => {
            w.u8(4);
            w.str(names.name(*element));
            w.usize(*src);
            w.i64(*tag);
            w.u64(*bytes);
        }
        PrimOp::Wait { element, seconds } => {
            w.u8(5);
            w.str(names.name(*element));
            w.f64(*seconds);
        }
        PrimOp::Threads { element, arms } => {
            w.u8(6);
            w.str(names.name(*element));
            w.count(arms.len());
            for arm in arms {
                w.count(arm.len());
                for op in arm {
                    put_prim_op(w, names, op);
                }
            }
        }
        PrimOp::Lock(id) => {
            w.u8(7);
            w.usize(*id);
        }
        PrimOp::Unlock(id) => {
            w.u8(8);
            w.usize(*id);
        }
    }
}

/// Decode one op; `in_arm` for an op of a thread arm, where a team is a
/// [`DecodeError`]: an elaboration holds no nested teams, so decoding
/// recurses one level at most.
fn get_prim_op(
    r: &mut Reader<'_>,
    names: &ElementNames,
    in_arm: bool,
) -> Result<PrimOp, DecodeError> {
    Ok(match r.u8()? {
        0 => PrimOp::Enter(r.element(names)?),
        1 => PrimOp::Exit(r.element(names)?),
        2 => PrimOp::Compute {
            element: r.element(names)?,
            seconds: r.f64()?,
        },
        3 => PrimOp::SendTo {
            element: r.element(names)?,
            dest: r.usize()?,
            bytes: r.u64()?,
            tag: r.i64()?,
        },
        4 => PrimOp::RecvFrom {
            element: r.element(names)?,
            src: r.usize()?,
            tag: r.i64()?,
            bytes: r.u64()?,
        },
        5 => PrimOp::Wait {
            element: r.element(names)?,
            seconds: r.f64()?,
        },
        6 if in_arm => return err("thread team inside a thread arm"),
        6 => {
            let element = r.element(names)?;
            let n = r.count(4)?;
            let mut arms = Vec::with_capacity(cap(n));
            for _ in 0..n {
                let len = r.count(5)?;
                let mut arm = Vec::with_capacity(cap(len));
                for _ in 0..len {
                    arm.push(get_prim_op(r, names, true)?);
                }
                arms.push(arm);
            }
            PrimOp::Threads { element, arms }
        }
        7 => PrimOp::Lock(r.usize()?),
        8 => PrimOp::Unlock(r.usize()?),
        t => return err(format!("bad prim-op tag {t}")),
    })
}

/// Encode one pre-flattened elaboration entry into `w`.
pub fn put_elab_entry(w: &mut Writer, e: &ElabEntry) {
    let sp = e.sp;
    w.usize(sp.nodes);
    w.usize(sp.cpus_per_node);
    w.usize(sp.processes);
    w.usize(sp.threads_per_process);
    w.f64(e.comm.intra_latency);
    w.f64(e.comm.intra_bandwidth);
    w.f64(e.comm.inter_latency);
    w.f64(e.comm.inter_bandwidth);
    w.f64(e.comm.send_overhead);
    w.usize(e.limits.max_ops);
    w.u64(e.limits.max_loop_iterations);
    w.count(e.ops.len());
    for rank in e.ops.iter() {
        w.count(rank.len());
        for op in rank.iter() {
            put_prim_op(w, e.ops.names(), op);
        }
    }
}

/// Decode one pre-flattened elaboration entry of the program whose
/// element names are `names` from `r`. An op naming an element the
/// program does not have is a [`DecodeError`].
pub fn get_elab_entry(
    r: &mut Reader<'_>,
    names: &Arc<ElementNames>,
) -> Result<ElabEntry, DecodeError> {
    let sp = SystemParams {
        nodes: r.usize()?,
        cpus_per_node: r.usize()?,
        processes: r.usize()?,
        threads_per_process: r.usize()?,
    };
    let comm = CommParams {
        intra_latency: r.f64()?,
        intra_bandwidth: r.f64()?,
        inter_latency: r.f64()?,
        inter_bandwidth: r.f64()?,
        send_overhead: r.f64()?,
    };
    let limits = FlattenLimits {
        max_ops: r.usize()?,
        max_loop_iterations: r.u64()?,
    };
    let n = r.count(4)?;
    let mut ranks = Vec::with_capacity(cap(n));
    for _ in 0..n {
        let len = r.count(5)?;
        let mut ops = Vec::with_capacity(cap(len));
        for _ in 0..len {
            ops.push(get_prim_op(r, names, false)?);
        }
        ranks.push(ops);
    }
    let ops = Elaboration::new(Arc::clone(names), ranks).map_err(|e| DecodeError(e.to_string()))?;
    Ok(ElabEntry {
        sp,
        comm,
        limits,
        ops: Arc::new(ops),
    })
}

/// Encode a string (used by the store for the model/MCF XML sections).
pub fn put_str(w: &mut Writer, s: &str) {
    w.str(s);
}

/// Decode a string.
pub fn get_str(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    r.str()
}

/// Encode a collection count.
pub fn put_count(w: &mut Writer, n: usize) {
    w.count(n);
}

/// Decode a collection count, validated against `min_item_bytes` per
/// element of remaining payload.
pub fn get_count(r: &mut Reader<'_>, min_item_bytes: usize) -> Result<usize, DecodeError> {
    r.count(min_item_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_expr::{parse_expression, parse_statements};

    fn roundtrip_program(p: &Program) -> Program {
        let mut w = Writer::new();
        put_program(&mut w, p);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = get_program(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        back
    }

    #[test]
    fn program_roundtrips_bit_for_bit() {
        let mut p = Program::new("codec");
        p.globals.push(("GV".into(), 2.5));
        p.locals.push(("LV".into(), -0.0));
        p.functions
            .push(FunctionDef::parse("FA1", &["x"], "x * 2 + GV").unwrap());
        p.body = Step::Seq(vec![
            Step::Exec {
                name: "A".into(),
                cost: Some(parse_expression("FA1(P) ? 1 : 2 ^ pid").unwrap()),
                code: parse_statements("var t = 1; while (t < 3) { t = t + 1; } GV = t;").unwrap(),
            },
            Step::Branch(vec![
                (
                    Some(parse_expression("!(GV > 0) && true").unwrap()),
                    Step::Nop,
                ),
                (
                    None,
                    Step::Composite {
                        name: "C".into(),
                        body: Box::new(Step::Mpi {
                            name: "x".into(),
                            op: MpiOp::Send {
                                dest: parse_expression("pid + 1").unwrap(),
                                size: parse_expression("4096").unwrap(),
                                tag: -7,
                            },
                        }),
                    },
                ),
            ]),
            Step::Loop {
                name: "L".into(),
                count: parse_expression("10").unwrap(),
                var: Some("i".into()),
                body: Box::new(Step::ParallelRegion {
                    name: "omp".into(),
                    threads: None,
                    body: Box::new(Step::Critical {
                        name: "crit".into(),
                        lock: "l0".into(),
                        body: Box::new(Step::Exec {
                            name: "B".into(),
                            cost: None,
                            code: vec![],
                        }),
                    }),
                }),
            },
            Step::Parallel(vec![Step::Mpi {
                name: "bar".into(),
                op: MpiOp::Barrier,
            }]),
        ]);
        assert_eq!(roundtrip_program(&p), p);
    }

    #[test]
    fn every_mpi_op_roundtrips() {
        let e = || parse_expression("P - 1").unwrap();
        for op in [
            MpiOp::Send {
                dest: e(),
                size: e(),
                tag: 3,
            },
            MpiOp::Recv { src: e(), tag: 3 },
            MpiOp::Broadcast {
                root: e(),
                size: e(),
            },
            MpiOp::Reduce {
                root: e(),
                size: e(),
            },
            MpiOp::Allreduce { size: e() },
            MpiOp::Scatter {
                root: e(),
                size: e(),
            },
            MpiOp::Gather {
                root: e(),
                size: e(),
            },
            MpiOp::Barrier,
        ] {
            let mut p = Program::new("op");
            p.body = Step::Mpi {
                name: "m".into(),
                op,
            };
            assert_eq!(roundtrip_program(&p), p);
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut p = Program::new("trunc");
        p.body = Step::Exec {
            name: "A".into(),
            cost: Some(parse_expression("1 + 2 * 3").unwrap()),
            code: vec![],
        };
        let mut w = Writer::new();
        put_program(&mut w, &p);
        let bytes = w.into_bytes();
        // The encoding is self-delimiting and the decode path depends
        // only on bytes already read, so every strict prefix must fail
        // cleanly (never panic, never succeed).
        for cut in 0..bytes.len() {
            assert!(
                get_program(&mut Reader::new(&bytes[..cut])).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        // A count claiming u32::MAX elements with 5 bytes behind it.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.buf.extend_from_slice(&[0u8; 5]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.count(1).is_err());
    }

    #[test]
    fn bad_tags_are_decode_errors() {
        let mut w = Writer::new();
        w.u8(200); // no such step tag
        let bytes = w.into_bytes();
        assert!(get_step(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn elab_entry_roundtrips() {
        use prophet_estimator::flatten_all;
        use prophet_machine::MachineModel;
        let mut p = Program::new("elab");
        p.body = Step::Exec {
            name: "A".into(),
            cost: Some(parse_expression("1 + pid").unwrap()),
            code: vec![],
        };
        let sp = SystemParams::flat_mpi(3, 1);
        let comm = CommParams::default();
        let machine = MachineModel::new(sp, comm).unwrap();
        let limits = FlattenLimits::default();
        let ops = flatten_all(&p, &machine, limits).unwrap();
        let entry = ElabEntry {
            sp,
            comm,
            limits,
            ops,
        };
        let mut w = Writer::new();
        put_elab_entry(&mut w, &entry);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = get_elab_entry(&mut r, p.resolve().names()).unwrap();
        r.finish().unwrap();
        assert_eq!(back.sp, entry.sp);
        assert_eq!(back.comm, entry.comm);
        assert_eq!(back.limits, entry.limits);
        assert_eq!(back.ops.len(), entry.ops.len());
        for (a, b) in back.ops.iter().zip(entry.ops.iter()) {
            assert_eq!(&a[..], &b[..]);
        }

        // Another program has no element `A`: its ops do not decode.
        let mut other = Program::new("other");
        other.body = Step::Exec {
            name: "B".into(),
            cost: None,
            code: vec![],
        };
        let err = get_elab_entry(&mut Reader::new(&bytes), other.resolve().names()).unwrap_err();
        assert_eq!(err.0, "op names unknown element `A`");
    }

    #[test]
    fn nested_thread_teams_do_not_decode() {
        let mut p = Program::new("nest");
        p.body = Step::Exec {
            name: "A".into(),
            cost: None,
            code: vec![],
        };
        let names = p.resolve().names();
        let a = names.id("A").unwrap();
        let team = |arms| PrimOp::Threads { element: a, arms };
        let sp = SystemParams::flat_mpi(1, 1);
        let c = CommParams::default();
        let limits = FlattenLimits::default();
        let mut w = Writer::new();
        for v in [
            sp.nodes,
            sp.cpus_per_node,
            sp.processes,
            sp.threads_per_process,
        ] {
            w.usize(v);
        }
        for v in [
            c.intra_latency,
            c.intra_bandwidth,
            c.inter_latency,
            c.inter_bandwidth,
            c.send_overhead,
        ] {
            w.f64(v);
        }
        w.usize(limits.max_ops);
        w.u64(limits.max_loop_iterations);
        w.count(1); // one rank
        w.count(1); // of one op: a team whose arm holds a team
        put_prim_op(&mut w, names, &team(vec![vec![team(vec![vec![]])]]));
        let bytes = w.into_bytes();
        let err = get_elab_entry(&mut Reader::new(&bytes), names).unwrap_err();
        assert_eq!(err.0, "thread team inside a thread arm");
    }
}
