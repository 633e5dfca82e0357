//! The deterministic builtin functions of the cost-function language.

use crate::error::{ExprError, ExprResult};

/// A builtin function. All builtins are pure and deterministic, so model
/// evaluation is reproducible; they cannot be shadowed by model
/// functions, which keeps the emitted C++ (where they map to `<cmath>`)
/// aligned with evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `abs(x)`
    Abs,
    /// `floor(x)`
    Floor,
    /// `ceil(x)`
    Ceil,
    /// `round(x)`
    Round,
    /// `sqrt(x)`, an error for negative `x`.
    Sqrt,
    /// `exp(x)`
    Exp,
    /// `log(x)`, an error for non-positive `x`.
    Log,
    /// `log2(x)`, an error for non-positive `x`.
    Log2,
    /// `log10(x)`, an error for non-positive `x`.
    Log10,
    /// `sin(x)`
    Sin,
    /// `cos(x)`
    Cos,
    /// `tanh(x)`
    Tanh,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `pow(a, b)`
    Pow,
    /// `fmod(a, b)`, an error for `b == 0`.
    Fmod,
}

pub(crate) const ALL: [(&str, Builtin); 16] = [
    ("abs", Builtin::Abs),
    ("floor", Builtin::Floor),
    ("ceil", Builtin::Ceil),
    ("round", Builtin::Round),
    ("sqrt", Builtin::Sqrt),
    ("exp", Builtin::Exp),
    ("log", Builtin::Log),
    ("log2", Builtin::Log2),
    ("log10", Builtin::Log10),
    ("sin", Builtin::Sin),
    ("cos", Builtin::Cos),
    ("tanh", Builtin::Tanh),
    ("min", Builtin::Min),
    ("max", Builtin::Max),
    ("pow", Builtin::Pow),
    ("fmod", Builtin::Fmod),
];

impl Builtin {
    /// The builtin called `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        ALL.iter().find(|(n, _)| *n == name).map(|&(_, b)| b)
    }

    /// Number of arguments: 1, or 2 for `min`, `max`, `pow` and `fmod`.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Min | Builtin::Max | Builtin::Pow | Builtin::Fmod => 2,
            _ => 1,
        }
    }

    /// Apply to `a`, which holds at least [`Builtin::arity`] values.
    pub fn apply(self, a: &[f64]) -> ExprResult<f64> {
        Ok(match self {
            Builtin::Abs => a[0].abs(),
            Builtin::Floor => a[0].floor(),
            Builtin::Ceil => a[0].ceil(),
            Builtin::Round => a[0].round(),
            Builtin::Sqrt => {
                if a[0] < 0.0 {
                    return Err(ExprError::eval(format!("sqrt of negative number {}", a[0])));
                }
                a[0].sqrt()
            }
            Builtin::Exp => a[0].exp(),
            Builtin::Log => guard_log(a[0], f64::ln)?,
            Builtin::Log2 => guard_log(a[0], f64::log2)?,
            Builtin::Log10 => guard_log(a[0], f64::log10)?,
            Builtin::Sin => a[0].sin(),
            Builtin::Cos => a[0].cos(),
            Builtin::Tanh => a[0].tanh(),
            Builtin::Min => a[0].min(a[1]),
            Builtin::Max => a[0].max(a[1]),
            Builtin::Pow => a[0].powf(a[1]),
            Builtin::Fmod => {
                if a[1] == 0.0 {
                    return Err(ExprError::eval("fmod by zero"));
                }
                a[0] % a[1]
            }
        })
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
