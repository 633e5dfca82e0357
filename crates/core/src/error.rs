//! The unified pipeline error.
//!
//! Every stage of the compile/evaluate pipeline reports through one
//! [`Error`] enum with [`std::error::Error::source`] chaining.

use crate::transform::TransformError;
use prophet_check::Diagnostic;
use prophet_estimator::EstimatorError;
use prophet_machine::MachineError;
use prophet_xml::XmlError;
use std::fmt;

/// Why a compile or evaluation failed.
#[derive(Debug, Clone)]
pub enum Error {
    /// The model checker found error-severity diagnostics.
    Check(Vec<Diagnostic>),
    /// The model XML could not be parsed.
    Parse(XmlError),
    /// The UML → C++/IR transformation failed.
    Transform(TransformError),
    /// The system parameters do not describe a valid machine.
    Machine(MachineError),
    /// Simulation-time evaluation failed.
    Estimate(EstimatorError),
}

impl Error {
    /// Error-severity diagnostics if this is a check failure.
    pub fn diagnostics(&self) -> Option<&[Diagnostic]> {
        match self {
            Error::Check(diags) => Some(diags),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Check(diags) => {
                // No trailing newline: Display output gets embedded in
                // single-line contexts (`format!("...: {e}")`, log lines).
                write!(f, "model check failed with {} finding(s):", diags.len())?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            Error::Parse(_) => write!(f, "model XML does not parse"),
            Error::Transform(_) => write!(f, "model transformation failed"),
            Error::Machine(_) => write!(f, "machine model rejected the system parameters"),
            Error::Estimate(_) => write!(f, "performance evaluation failed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Check(_) => None,
            Error::Parse(e) => Some(e),
            Error::Transform(e) => Some(e),
            Error::Machine(e) => Some(e),
            Error::Estimate(e) => Some(e),
        }
    }
}

impl From<XmlError> for Error {
    fn from(e: XmlError) -> Self {
        Error::Parse(e)
    }
}

impl From<TransformError> for Error {
    fn from(e: TransformError) -> Self {
        Error::Transform(e)
    }
}

impl From<MachineError> for Error {
    fn from(e: MachineError) -> Self {
        Error::Machine(e)
    }
}

impl From<EstimatorError> for Error {
    fn from(e: EstimatorError) -> Self {
        Error::Estimate(e)
    }
}

fn render_chain_with(e: &dyn std::error::Error, sep: &str) -> String {
    let mut out = e.to_string();
    let mut cause = e.source();
    while let Some(c) = cause {
        out.push_str(sep);
        out.push_str(&c.to_string());
        cause = c.source();
    }
    out
}

/// Render an error with its whole `source()` chain, one level per line.
pub fn render_chain(e: &dyn std::error::Error) -> String {
    render_chain_with(e, "\n  caused by: ")
}

/// Render an error and its `source()` chain on a single line, `": "`
/// separated — for table rows and log lines where newlines would break
/// the layout.
pub fn render_chain_inline(e: &dyn std::error::Error) -> String {
    render_chain_with(e, ": ")
}
