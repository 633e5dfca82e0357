//! XMI-flavoured XML serialization of models — the `Models (XML)` artifact
//! of the Figure-2 architecture, generated (like the C++ representation)
//! through a [`ContentHandler`] over the Figure-6 traverser.

use crate::model::{
    DiagramId, Edge, ElementId, FunctionDecl, Model, NodeKind, VarScope, VarType, Variable,
};
use crate::profile::{StereotypeApplication, TagType, TagValue};
use crate::traverse::{ContentHandler, ExplicitStackNavigator, Traverser, VisitPhase};
use prophet_xml::{Document, Element as XmlElement, XmlError, XmlResult};

/// Serialize a model to an XML document string.
///
/// Element ids, and the `from`/`to` of every `flow`, are written as
/// document-order ordinals: exactly the ids [`model_from_xml`] assigns.
/// The output therefore does not depend on the model's arena numbering,
/// and parsing it and serializing again reproduces it byte for byte —
/// one serialization is the canonical form that content keys digest.
pub fn model_to_xml(model: &Model) -> String {
    let mut handler = XmlContentHandler::default();
    let mut nav = ExplicitStackNavigator::new(model.main_diagram());
    Traverser::new().traverse(model, &mut nav, &mut handler);
    Document::with_root(handler.finish(model)).to_xml_string()
}

/// Parse a model from XML produced by [`model_to_xml`].
pub fn model_from_xml(xml: &str) -> XmlResult<Model> {
    let doc = prophet_xml::parse_document(xml)?;
    read_model(&doc.root)
}

/// A [`ContentHandler`] that lays out the XML document during traversal —
/// the "generation of different model representations (XML and C++)"
/// responsibility of the Model Traverser.
///
/// Each diagram is one `<diagram>` element, written in the order the
/// traversal leaves it: a composite's body precedes the diagram that
/// holds the composite. Element ids are ordinals in that document order,
/// so the tree is built once the order is known, in [`Self::finish`].
#[derive(Default)]
struct XmlContentHandler {
    /// Diagrams in document order.
    diagrams: Vec<DiagramId>,
}

impl XmlContentHandler {
    fn finish(self, model: &Model) -> XmlElement {
        let mut root = XmlElement::new("model").with_attr("name", model.name.clone());
        root.set_attr("profile", model.profile.name.clone());

        let mut vars = XmlElement::new("variables");
        for v in &model.variables {
            let mut ve = XmlElement::new("variable")
                .with_attr("name", v.name.clone())
                .with_attr("type", v.var_type.name())
                .with_attr(
                    "scope",
                    match v.scope {
                        VarScope::Global => "global",
                        VarScope::Local => "local",
                    },
                );
            if let Some(init) = &v.init {
                ve.set_attr("init", init.clone());
            }
            vars.push_element(ve);
        }
        root.push_element(vars);

        let mut funcs = XmlElement::new("functions");
        for f in &model.functions {
            funcs.push_element(
                XmlElement::new("function")
                    .with_attr("name", f.name.clone())
                    .with_attr("params", f.params.join(","))
                    .with_attr("body", f.body.clone()),
            );
        }
        root.push_element(funcs);

        // Document-order ordinal of each element, by arena index. An
        // edge end outside the document (which the checker rejects,
        // PP004) is numbered after it, so it never aliases a written
        // element.
        let mut ordinals = vec![usize::MAX; model.element_count()];
        let mut next = 0;
        for &did in &self.diagrams {
            for eid in &model.diagram(did).nodes {
                ordinals[eid.0] = next;
                next += 1;
            }
        }
        let mut ordinal = |eid: ElementId| {
            if ordinals[eid.0] == usize::MAX {
                ordinals[eid.0] = next;
                next += 1;
            }
            ordinals[eid.0].to_string()
        };

        let mut id = 0;
        for &did in &self.diagrams {
            let d = model.diagram(did);
            let mut de = XmlElement::new("diagram").with_attr("name", d.name.clone());
            for &eid in &d.nodes {
                de.push_element(Self::element_to_xml(model, eid, id));
                id += 1;
            }
            let mut edges = XmlElement::new("edges");
            for Edge { from, to, guard } in &d.edges {
                let mut ee = XmlElement::new("flow")
                    .with_attr("from", ordinal(*from))
                    .with_attr("to", ordinal(*to));
                if let Some(g) = guard {
                    ee.set_attr("guard", g.clone());
                }
                edges.push_element(ee);
            }
            de.push_element(edges);
            root.push_element(de);
        }
        root
    }

    fn element_to_xml(model: &Model, eid: ElementId, id: usize) -> XmlElement {
        let el = model.element(eid);
        let mut xe = XmlElement::new("element")
            .with_attr("id", id.to_string())
            .with_attr("name", el.name.clone())
            .with_attr("kind", el.kind.tag());
        if let NodeKind::CallActivity(sub) = el.kind {
            xe.set_attr("sub", model.diagram(sub).name.clone());
        }
        if let Some(st) = &el.stereotype {
            let mut se = XmlElement::new("stereotype").with_attr("name", st.stereotype.clone());
            for (tag, value) in &st.values {
                let kind = match value {
                    TagValue::Int(_) => "Integer",
                    TagValue::Num(_) => "Double",
                    TagValue::Str(_) => "String",
                    TagValue::Bool(_) => "Boolean",
                    TagValue::Expr(_) => "Expression",
                    TagValue::Code(_) => "Code",
                };
                se.push_element(
                    XmlElement::new("tag")
                        .with_attr("name", tag.clone())
                        .with_attr("type", kind)
                        .with_attr("value", value.to_text()),
                );
            }
            xe.push_element(se);
        }
        xe
    }
}
impl ContentHandler for XmlContentHandler {
    fn visit_element(&mut self, _model: &Model, _element: ElementId, _phase: VisitPhase) {}

    fn end_diagram(&mut self, _model: &Model, diagram: DiagramId) {
        self.diagrams.push(diagram);
    }
}

fn read_model(root: &XmlElement) -> XmlResult<Model> {
    if root.name != "model" {
        return Err(XmlError::structural(format!(
            "expected <model>, found <{}>",
            root.name
        )));
    }
    let mut model = Model::new(root.required_attr("name")?);

    if let Some(vars) = root.child("variables") {
        for v in vars.children_named("variable") {
            let var_type = match v.required_attr("type")? {
                "int" => VarType::Int,
                "double" => VarType::Double,
                "bool" => VarType::Bool,
                other => {
                    return Err(XmlError::structural(format!(
                        "unknown variable type `{other}`"
                    )))
                }
            };
            let scope = match v.required_attr("scope")? {
                "global" => VarScope::Global,
                "local" => VarScope::Local,
                other => {
                    return Err(XmlError::structural(format!(
                        "unknown variable scope `{other}`"
                    )))
                }
            };
            model.add_variable(Variable {
                name: v.required_attr("name")?.to_string(),
                var_type,
                scope,
                init: v.attr("init").map(|s| s.to_string()),
            });
        }
    }

    if let Some(funcs) = root.child("functions") {
        for f in funcs.children_named("function") {
            let params_raw = f.attr("params").unwrap_or("");
            let params = if params_raw.is_empty() {
                Vec::new()
            } else {
                params_raw
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect()
            };
            model.add_function(FunctionDecl {
                name: f.required_attr("name")?.to_string(),
                params,
                body: f.required_attr("body")?.to_string(),
            });
        }
    }

    // Pass 1: create all diagrams by name (main exists already).
    for d in root.children_named("diagram") {
        let name = d.required_attr("name")?;
        if name != "main" && model.diagram_by_name(name).is_none() {
            model.add_diagram(name);
        }
    }

    // Pass 2: elements. Keep a map from serialized id → new ElementId.
    let mut id_map: Vec<(usize, ElementId)> = Vec::new();
    for d in root.children_named("diagram") {
        let did = model
            .diagram_by_name(d.required_attr("name")?)
            .expect("created in pass 1")
            .id;
        for e in d.children_named("element") {
            let old_id: usize = e
                .required_attr("id")?
                .parse()
                .map_err(|_| XmlError::structural("bad element id"))?;
            let kind = match e.required_attr("kind")? {
                "initial" => NodeKind::Initial,
                "final" => NodeKind::ActivityFinal,
                "flowfinal" => NodeKind::FlowFinal,
                "action" => NodeKind::Action,
                "decision" => NodeKind::Decision,
                "merge" => NodeKind::Merge,
                "fork" => NodeKind::Fork,
                "join" => NodeKind::Join,
                "activity" => {
                    let sub_name = e.required_attr("sub")?;
                    let sub = model
                        .diagram_by_name(sub_name)
                        .ok_or_else(|| {
                            XmlError::structural(format!("unknown sub-diagram `{sub_name}`"))
                        })?
                        .id;
                    NodeKind::CallActivity(sub)
                }
                other => {
                    return Err(XmlError::structural(format!(
                        "unknown element kind `{other}`"
                    )))
                }
            };
            let stereotype = match e.child("stereotype") {
                Some(se) => {
                    let mut app = StereotypeApplication::new(se.required_attr("name")?);
                    for t in se.children_named("tag") {
                        let tt = match t.required_attr("type")? {
                            "Integer" => TagType::Integer,
                            "Double" => TagType::Double,
                            "String" => TagType::String,
                            "Boolean" => TagType::Boolean,
                            "Expression" => TagType::Expression,
                            "Code" => TagType::Code,
                            other => {
                                return Err(XmlError::structural(format!(
                                    "unknown tag type `{other}`"
                                )))
                            }
                        };
                        let value = TagValue::from_text(tt, t.required_attr("value")?)
                            .map_err(XmlError::structural)?;
                        app.set(t.required_attr("name")?, value);
                    }
                    Some(app)
                }
                None => None,
            };
            let new_id = model.add_element(did, e.required_attr("name")?, kind, stereotype);
            id_map.push((old_id, new_id));
        }
    }

    let lookup = |old: usize| -> XmlResult<ElementId> {
        id_map
            .iter()
            .find(|(o, _)| *o == old)
            .map(|(_, n)| *n)
            .ok_or_else(|| XmlError::structural(format!("edge references unknown element {old}")))
    };

    // Pass 3: edges.
    for d in root.children_named("diagram") {
        let did = model
            .diagram_by_name(d.required_attr("name")?)
            .expect("pass 1")
            .id;
        if let Some(edges) = d.child("edges") {
            for f in edges.children_named("flow") {
                let from: usize = f
                    .required_attr("from")?
                    .parse()
                    .map_err(|_| XmlError::structural("bad from id"))?;
                let to: usize = f
                    .required_attr("to")?
                    .parse()
                    .map_err(|_| XmlError::structural("bad to id"))?;
                model.add_edge(
                    did,
                    lookup(from)?,
                    lookup(to)?,
                    f.attr("guard").map(|s| s.to_string()),
                );
            }
        }
    }

    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;

    fn demo_model() -> Model {
        let mut b = ModelBuilder::new("demo");
        b.global("GV", VarType::Int, Some("0"));
        b.global("P", VarType::Int, Some("4"));
        b.local("t", VarType::Double, None);
        b.function("FA1", &[], "0.04 + 0.01 * P");
        b.function("FSA2", &["pid"], "0.1 * pid");
        let main = b.main_diagram();
        let sub = b.diagram("SA");
        let i = b.initial(main, "start");
        let a1 = b.action(main, "A1", "FA1()");
        b.attach_code(a1, "GV = 1; P = 4;");
        let dec = b.decision(main, "dec");
        let sa = b.call_activity(main, "SA", sub);
        let a2 = b.action(main, "A2", "FA2()");
        let m2 = b.merge(main, "merge");
        let f = b.final_node(main, "end");
        b.flow(main, i, a1);
        b.flow(main, a1, dec);
        b.guarded_flow(main, dec, sa, "GV == 1");
        b.guarded_flow(main, dec, a2, "else");
        b.flow(main, sa, m2);
        b.flow(main, a2, m2);
        b.flow(main, m2, f);
        let sa1 = b.action(sub, "SA1", "FSA1()");
        let sa2 = b.action(sub, "SA2", "FSA2(pid)");
        b.flow(sub, sa1, sa2);
        b.build()
    }

    #[test]
    fn xml_contains_expected_structure() {
        let m = demo_model();
        let xml = model_to_xml(&m);
        assert!(xml.contains("<model name=\"demo\""), "{xml}");
        assert!(xml.contains("<variable name=\"GV\" type=\"int\" scope=\"global\" init=\"0\"/>"));
        assert!(xml.contains("<function name=\"FA1\""));
        assert!(xml.contains("guard=\"GV == 1\""));
        assert!(xml.contains("<diagram name=\"SA\">"));
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = demo_model();
        let xml = model_to_xml(&m);
        let back = model_from_xml(&xml).unwrap();

        assert_eq!(back.name, m.name);
        assert_eq!(back.element_count(), m.element_count());
        assert_eq!(back.variables, m.variables);
        assert_eq!(back.functions, m.functions);
        assert_eq!(back.diagrams.len(), m.diagrams.len());
        for (d1, d2) in m.diagrams.iter().zip(&back.diagrams) {
            assert_eq!(d1.name, d2.name);
            assert_eq!(d1.nodes.len(), d2.nodes.len());
            assert_eq!(d1.edges.len(), d2.edges.len());
        }
        // Element-level fidelity by name.
        for el in m.elements() {
            let other = back.element_by_name(&el.name).expect("element survives");
            assert_eq!(other.kind.tag(), el.kind.tag(), "kind of {}", el.name);
            assert_eq!(
                other.stereotype.as_ref().map(|s| &s.values),
                el.stereotype.as_ref().map(|s| &s.values),
                "tags of {}",
                el.name
            );
        }
        // The body diagram `SA` is written first but its elements were
        // created last, so arena ids and document order disagree; ids
        // are written as document-order ordinals, so the first
        // re-serialization is already byte-identical.
        assert_eq!(model_to_xml(&back), xml);
    }

    #[test]
    fn code_fragment_survives_roundtrip() {
        let m = demo_model();
        let back = model_from_xml(&model_to_xml(&m)).unwrap();
        assert_eq!(
            back.element_by_name("A1").unwrap().code_fragment(),
            Some("GV = 1; P = 4;")
        );
    }

    #[test]
    fn malformed_rejected() {
        assert!(model_from_xml("<notamodel/>").is_err());
        assert!(model_from_xml("<model/>").is_err()); // missing name
        let bad_edge = r#"<model name="m"><diagram name="main"><edges><flow from="99" to="98"/></edges></diagram></model>"#;
        assert!(model_from_xml(bad_edge).is_err());
    }

    #[test]
    fn unknown_kind_rejected() {
        let bad = r#"<model name="m"><diagram name="main"><element id="0" name="x" kind="banana"/></diagram></model>"#;
        let err = model_from_xml(bad).unwrap_err();
        assert!(err.message.contains("banana"), "{err}");
    }
}
