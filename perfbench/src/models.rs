//! The bundled models the workloads draw from, the edit workload's
//! never-seen variants of them, and in-process expected answers.

use prophet_check::McfConfig;
use prophet_core::{ArtifactKey, Backend, Scenario, Session};
use prophet_machine::SystemParams;
use prophet_serve::api;
use prophet_uml::Model;

/// Names of the ten bundled models, in their published order.
pub fn names() -> Vec<&'static str> {
    api::demo_models().into_iter().map(|(n, _)| n).collect()
}

/// A bundled model by name, as the service resolves `model_name`.
pub fn bundled(name: &str) -> Model {
    api::demo_model(name).expect("bundled model exists")
}

/// The content keys of the bundled models (the fleet's placement input).
pub fn bundled_keys() -> Vec<ArtifactKey> {
    names()
        .iter()
        .map(|n| ArtifactKey::of(&bundled(n), &McfConfig::default()))
        .collect()
}

/// The scenario an estimate request for `sp` with `backend` evaluates.
pub fn scenario(sp: SystemParams, backend: Backend) -> Scenario {
    Scenario::new(sp).with_backend(backend).without_trace()
}

/// Bits of the predicted time of one evaluation, or the error text.
pub fn expected(session: &Session, sp: SystemParams, backend: Backend) -> Result<u64, String> {
    session
        .evaluate(&scenario(sp, backend))
        .map(|e| e.predicted_time.to_bits())
        .map_err(|e| e.to_string())
        .and_then(|bits| {
            if f64::from_bits(bits).is_finite() {
                Ok(bits)
            } else {
                Err("non-finite prediction".into())
            }
        })
}

/// `xml` with every cost expression scaled by `factor` (a decimal
/// literal): the digest is new, the control flow and op counts are not.
pub fn variant_xml(xml: &str, factor: &str) -> String {
    const COST: &str = "<tag name=\"cost\" type=\"Expression\" value=\"";
    let mut out = String::with_capacity(xml.len() + 256);
    let mut rest = xml;
    while let Some(at) = rest.find(COST) {
        let value_start = at + COST.len();
        let value_end = value_start + rest[value_start..].find('"').expect("closed attribute");
        out.push_str(&rest[..value_start]);
        out.push('(');
        out.push_str(&rest[value_start..value_end]);
        out.push_str(") * ");
        out.push_str(factor);
        rest = &rest[value_end..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bundled_model_has_a_cost_to_scale() {
        for name in names() {
            let xml = prophet_uml::xmi::model_to_xml(&bundled(name));
            let edited = variant_xml(&xml, "1.000000001");
            assert_ne!(xml, edited, "{name}");
            let model = prophet_uml::xmi::model_from_xml(&edited).expect("variant parses");
            Session::compile(model, McfConfig::default()).expect("variant compiles");
        }
    }
}
