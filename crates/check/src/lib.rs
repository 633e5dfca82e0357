//! # prophet-check
//!
//! The **Model Checker** of Teuta (Figure 2 of Pllana et al., ICPP-W
//! 2008): "used to verify whether the model conforms to the UML
//! specification". Verification is rule-based and configured by a **Model
//! Checking File (MCF)** — an XML document selecting rules and severities,
//! mirroring the `MCF (XML)` input of the original architecture.
//!
//! Each rule is a [`Rule`] implementation with a stable id (`PP001`…)
//! producing [`Diagnostic`]s. [`check_model`] runs the configured rule set
//! over a model.
//!
//! ```
//! use prophet_uml::ModelBuilder;
//! use prophet_check::{check_model, McfConfig};
//!
//! let mut b = ModelBuilder::new("m");
//! let main = b.main_diagram();
//! let i = b.initial(main, "start");
//! let a = b.action(main, "A1", "0.5");
//! let f = b.final_node(main, "end");
//! b.flow(main, i, a);
//! b.flow(main, a, f);
//! let model = b.build();
//! let diags = check_model(&model, &McfConfig::default());
//! assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
//! ```

#![forbid(unsafe_code)]

pub mod mcf;
pub mod rules;

pub use mcf::{McfConfig, Severity};
pub use rules::{all_rules, Diagnostic, Rule};

use prophet_uml::Model;

/// Run every rule enabled in `config` over `model`.
pub fn check_model(model: &Model, config: &McfConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in all_rules() {
        if let Some(severity) = config.severity_of(rule.id()) {
            let before = out.len();
            rule.check(model, &mut out);
            // Stamp configured severity and rule id on new diagnostics.
            for d in &mut out[before..] {
                d.severity = severity;
                d.rule = rule.id().to_string();
            }
        }
    }
    out
}

/// True if no enabled rule produced an error-severity diagnostic.
pub fn model_is_valid(model: &Model, config: &McfConfig) -> bool {
    check_model(model, config).iter().all(|d| !d.is_error())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_uml::ModelBuilder;

    #[test]
    fn valid_model_passes() {
        let mut b = ModelBuilder::new("ok");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A1", "1.5");
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        let m = b.build();
        assert!(model_is_valid(&m, &McfConfig::default()));
    }

    #[test]
    fn disabled_rule_is_skipped() {
        // A model with an unparsable cost expression.
        let mut b = ModelBuilder::new("bad");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A1", "1 +");
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        let m = b.build();

        let full = McfConfig::default();
        assert!(!model_is_valid(&m, &full));

        let mut relaxed = McfConfig::default();
        relaxed.disable("PP006");
        assert!(model_is_valid(&m, &relaxed));
    }
}
