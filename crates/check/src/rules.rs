//! The model-checking rules (PP001–PP015).
//!
//! Each rule verifies one UML well-formedness or profile-conformance
//! property that the transformation algorithm (Figure 5) and the
//! Performance Estimator rely on.

use crate::mcf::Severity;
use prophet_expr::{parse_expression, parse_statements};
use prophet_uml::{Model, NodeKind, TagValue};
use std::collections::{HashMap, HashSet};

/// Variables the estimator injects into every evaluation environment:
/// system properties per the paper ("as parameters of cost functions may
/// be used the properties of system components (such as number of
/// processors, or the ID of process)").
pub const SYSTEM_VARS: &[&str] = &[
    "P", "pid", "tid", "uid", "N", "M", "nodes", "cpus", "threads",
];

/// One finding of a rule.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id (`PP006`), stamped by the driver.
    pub rule: String,
    /// Effective severity, stamped by the driver from the MCF.
    pub severity: Severity,
    /// Where: element or diagram name.
    pub location: String,
    /// What went wrong.
    pub message: String,
}

impl Diagnostic {
    fn new(location: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            rule: String::new(),
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
        }
    }

    /// True for error severity.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{} [{}] at `{}`: {}",
            sev, self.rule, self.location, self.message
        )
    }
}

/// A model-checking rule.
pub trait Rule: Sync {
    /// Stable id (`PP001`…).
    fn id(&self) -> &'static str;
    /// Human-readable name.
    fn name(&self) -> &'static str;
    /// Append diagnostics for violations in `model`.
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>);
}

/// Default severity of each rule (used when the MCF doesn't override).
pub fn default_severity(id: &str) -> Severity {
    match id {
        // Structural soundness and expression validity are hard errors.
        "PP001" | "PP003" | "PP004" | "PP005" | "PP006" | "PP007" | "PP008" | "PP010" | "PP011"
        | "PP014" => Severity::Error,
        // Style/suspicion-level findings.
        _ => Severity::Warning,
    }
}

/// All rules in id order.
pub fn all_rules() -> &'static [&'static dyn Rule] {
    &[
        &NamesAreIdentifiers,
        &PerfElementNamesUnique,
        &EntryPointExists,
        &EdgesReferenceDiagramNodes,
        &DecisionGuardsWellFormed,
        &CostExpressionsParse,
        &CodeFragmentsParse,
        &FunctionsWellFormed,
        &VariablesDeclared,
        &TagsConformToProfile,
        &ControlFlowAcyclic,
        &ForkJoinShape,
        &NodesReachable,
        &CompositeNestingAcyclic,
        &DecisionMergeDegree,
        &CollectivesNotRankGuarded,
    ]
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// PP001: performance-element names must be valid C identifiers — they
/// become C++ object names in the generated PMP (Figure 4: `Kernel6` →
/// `kernel6`).
struct NamesAreIdentifiers;
impl Rule for NamesAreIdentifiers {
    fn id(&self) -> &'static str {
        "PP001"
    }
    fn name(&self) -> &'static str {
        "element names are valid identifiers"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for el in model.elements() {
            if el.is_performance_element() && !is_identifier(&el.name) {
                out.push(Diagnostic::new(
                    &el.name,
                    format!("`{}` is not a valid identifier for C++ generation", el.name),
                ));
            }
        }
        for v in &model.variables {
            if !is_identifier(&v.name) {
                out.push(Diagnostic::new(
                    &v.name,
                    "variable name is not a valid identifier",
                ));
            }
        }
    }
}

/// PP002: performance-element names must be unique across the model —
/// they become C++ declarations in one scope (Figure 8(b) lines 64–68).
struct PerfElementNamesUnique;
impl Rule for PerfElementNamesUnique {
    fn id(&self) -> &'static str {
        "PP002"
    }
    fn name(&self) -> &'static str {
        "performance element names unique"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for &eid in &model.performance_elements() {
            *seen.entry(model.element(eid).name.as_str()).or_default() += 1;
        }
        for (name, count) in seen {
            if count > 1 {
                out.push(Diagnostic::new(
                    name,
                    format!("declared {count} times; C++ generation needs unique names"),
                ));
            }
        }
    }
}

/// Entry node of a diagram: its initial node, or the unique node with no
/// incoming edges (the paper's sub-diagram `SA` has no explicit initial).
pub fn entry_of(
    model: &Model,
    diagram: prophet_uml::DiagramId,
) -> Result<prophet_uml::ElementId, String> {
    let d = model.diagram(diagram);
    let initials: Vec<_> = d
        .nodes
        .iter()
        .copied()
        .filter(|&n| model.element(n).kind == NodeKind::Initial)
        .collect();
    match initials.len() {
        1 => return Ok(initials[0]),
        n if n > 1 => return Err(format!("diagram `{}` has {n} initial nodes", d.name)),
        _ => {}
    }
    let no_incoming: Vec<_> = d
        .nodes
        .iter()
        .copied()
        .filter(|&n| d.incoming(n).next().is_none())
        .collect();
    match no_incoming.len() {
        1 => Ok(no_incoming[0]),
        0 if d.nodes.is_empty() => Err(format!("diagram `{}` is empty", d.name)),
        0 => Err(format!(
            "diagram `{}` has no entry (every node has an incoming edge)",
            d.name
        )),
        _ => Err(format!(
            "diagram `{}` has an ambiguous entry: {} start candidates",
            d.name,
            no_incoming.len()
        )),
    }
}

/// PP003: every diagram has an unambiguous entry point.
struct EntryPointExists;
impl Rule for EntryPointExists {
    fn id(&self) -> &'static str {
        "PP003"
    }
    fn name(&self) -> &'static str {
        "diagram entry point exists and is unique"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for d in &model.diagrams {
            if d.nodes.is_empty() && d.id != model.main_diagram() {
                out.push(Diagnostic::new(&d.name, "diagram is empty"));
                continue;
            }
            if d.nodes.is_empty() {
                continue; // empty main diagram: separately a warning-free no-op
            }
            if let Err(msg) = entry_of(model, d.id) {
                out.push(Diagnostic::new(&d.name, msg));
            }
        }
    }
}

/// PP004: edges stay within their diagram and reference existing nodes.
struct EdgesReferenceDiagramNodes;
impl Rule for EdgesReferenceDiagramNodes {
    fn id(&self) -> &'static str {
        "PP004"
    }
    fn name(&self) -> &'static str {
        "edges reference nodes of their diagram"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for d in &model.diagrams {
            let members: HashSet<_> = d.nodes.iter().copied().collect();
            for e in &d.edges {
                for (end, id) in [("source", e.from), ("target", e.to)] {
                    if id.0 >= model.element_count() {
                        out.push(Diagnostic::new(
                            &d.name,
                            format!("edge {end} references nonexistent element {}", id.0),
                        ));
                    } else if !members.contains(&id) {
                        out.push(Diagnostic::new(
                            &d.name,
                            format!(
                                "edge {end} `{}` belongs to a different diagram",
                                model.element(id).name
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// PP005: decision nodes have ≥ 2 outgoing edges, each guarded, with at
/// most one `else`; guards parse as expressions. Maps to the paper's
/// if-else-if generation (Figure 8(b) lines 77–87).
struct DecisionGuardsWellFormed;
impl Rule for DecisionGuardsWellFormed {
    fn id(&self) -> &'static str {
        "PP005"
    }
    fn name(&self) -> &'static str {
        "decision guards well-formed"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for d in &model.diagrams {
            for &nid in &d.nodes {
                let el = model.element(nid);
                if el.kind != NodeKind::Decision {
                    continue;
                }
                let outs: Vec<_> = d.outgoing(nid).collect();
                if outs.len() < 2 {
                    out.push(Diagnostic::new(
                        &el.name,
                        format!(
                            "decision node has {} outgoing edge(s), needs at least 2",
                            outs.len()
                        ),
                    ));
                }
                let mut else_count = 0;
                for e in &outs {
                    match e.guard.as_deref() {
                        None => out.push(Diagnostic::new(
                            &el.name,
                            format!(
                                "edge to `{}` out of a decision node has no guard",
                                model.element(e.to).name
                            ),
                        )),
                        Some("else") => else_count += 1,
                        Some(g) => {
                            if let Err(err) = parse_expression(g) {
                                out.push(Diagnostic::new(
                                    &el.name,
                                    format!("guard `{g}` does not parse: {err}"),
                                ));
                            }
                        }
                    }
                }
                if else_count > 1 {
                    out.push(Diagnostic::new(
                        &el.name,
                        "decision node has multiple `else` edges",
                    ));
                }
            }
        }
    }
}

/// Expression-valued tags that must parse.
const EXPR_TAGS: &[&str] = &[
    "cost",
    "iterations",
    "threads",
    "dest",
    "src",
    "root",
    "size",
    "count",
];

/// PP006: expression tags parse.
struct CostExpressionsParse;
impl Rule for CostExpressionsParse {
    fn id(&self) -> &'static str {
        "PP006"
    }
    fn name(&self) -> &'static str {
        "cost/communication expressions parse"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for el in model.elements() {
            let Some(st) = &el.stereotype else { continue };
            for (tag, value) in &st.values {
                if !EXPR_TAGS.contains(&tag.as_str()) {
                    continue;
                }
                if let TagValue::Expr(src) | TagValue::Str(src) = value {
                    if let Err(err) = parse_expression(src) {
                        out.push(Diagnostic::new(
                            &el.name,
                            format!("tag `{tag}` = `{src}` does not parse: {err}"),
                        ));
                    }
                }
            }
        }
    }
}

/// PP007: associated code fragments parse as statements (Figure 7(b)).
struct CodeFragmentsParse;
impl Rule for CodeFragmentsParse {
    fn id(&self) -> &'static str {
        "PP007"
    }
    fn name(&self) -> &'static str {
        "code fragments parse"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for el in model.elements() {
            if let Some(code) = el.code_fragment() {
                if let Err(err) = parse_statements(code) {
                    out.push(Diagnostic::new(
                        &el.name,
                        format!("associated code fragment does not parse: {err}"),
                    ));
                }
            }
        }
    }
}

/// PP008: cost functions are well-formed: unique names, identifier
/// params, bodies parse, no undefined function references.
struct FunctionsWellFormed;
impl Rule for FunctionsWellFormed {
    fn id(&self) -> &'static str {
        "PP008"
    }
    fn name(&self) -> &'static str {
        "cost functions well-formed"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        let mut names = HashSet::new();
        for f in &model.functions {
            if !is_identifier(&f.name) {
                out.push(Diagnostic::new(
                    &f.name,
                    "function name is not a valid identifier",
                ));
            }
            if !names.insert(f.name.as_str()) {
                out.push(Diagnostic::new(&f.name, "function defined more than once"));
            }
            let mut params = HashSet::new();
            for p in &f.params {
                if !params.insert(p.as_str()) {
                    out.push(Diagnostic::new(
                        &f.name,
                        format!("duplicate parameter `{p}`"),
                    ));
                }
            }
            match parse_expression(&f.body) {
                Err(err) => out.push(Diagnostic::new(
                    &f.name,
                    format!("body does not parse: {err}"),
                )),
                Ok(expr) => {
                    let mut called = Vec::new();
                    expr.called_functions(&mut called);
                    for c in called {
                        let defined = model.functions.iter().any(|g| g.name == c)
                            || prophet_expr::Builtin::from_name(&c).is_some();
                        if !defined {
                            out.push(Diagnostic::new(
                                &f.name,
                                format!("calls undefined function `{c}`"),
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// Collect names visible to expressions on elements: declared variables
/// plus system properties.
fn visible_vars(model: &Model) -> HashSet<String> {
    let mut vars: HashSet<String> = model.variables.iter().map(|v| v.name.clone()).collect();
    for s in SYSTEM_VARS {
        vars.insert((*s).to_string());
    }
    vars
}

/// PP009: free variables of guards, expression tags and function bodies
/// are declared (model variables, function params, or system properties).
struct VariablesDeclared;
impl Rule for VariablesDeclared {
    fn id(&self) -> &'static str {
        "PP009"
    }
    fn name(&self) -> &'static str {
        "variables declared before use"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        let vars = visible_vars(model);
        let check_expr = |src: &str, loc: &str, out: &mut Vec<Diagnostic>| {
            if let Ok(expr) = parse_expression(src) {
                let mut free = Vec::new();
                expr.free_vars(&mut free);
                for v in free {
                    if !vars.contains(&v) {
                        out.push(Diagnostic::new(
                            loc,
                            format!("`{src}` references undeclared variable `{v}`"),
                        ));
                    }
                }
            }
        };
        for el in model.elements() {
            if let Some(st) = &el.stereotype {
                for (tag, value) in &st.values {
                    if EXPR_TAGS.contains(&tag.as_str()) {
                        if let TagValue::Expr(src) | TagValue::Str(src) = value {
                            check_expr(src, &el.name, out);
                        }
                    }
                }
            }
        }
        for d in &model.diagrams {
            for e in &d.edges {
                if let Some(g) = &e.guard {
                    if g != "else" {
                        check_expr(g, &d.name, out);
                    }
                }
            }
        }
        for f in &model.functions {
            if let Ok(expr) = parse_expression(&f.body) {
                let mut free = Vec::new();
                expr.free_vars(&mut free);
                for v in free {
                    if !vars.contains(&v) && !f.params.contains(&v) {
                        out.push(Diagnostic::new(
                            &f.name,
                            format!("body references undeclared variable `{v}`"),
                        ));
                    }
                }
            }
        }
    }
}

/// PP010: stereotype applications conform to the profile: known
/// stereotype, known tags, matching types, required tags present.
struct TagsConformToProfile;
impl Rule for TagsConformToProfile {
    fn id(&self) -> &'static str {
        "PP010"
    }
    fn name(&self) -> &'static str {
        "tagged values conform to the profile"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for el in model.elements() {
            let Some(app) = &el.stereotype else { continue };
            let Some(st) = model.profile.get(&app.stereotype) else {
                out.push(Diagnostic::new(
                    &el.name,
                    format!("unknown stereotype `<<{}>>`", app.stereotype),
                ));
                continue;
            };
            for (tag, value) in &app.values {
                match st.tag(tag) {
                    None => out.push(Diagnostic::new(
                        &el.name,
                        format!("stereotype `<<{}>>` has no tag `{tag}`", st.name),
                    )),
                    Some(def) => {
                        if !value.matches(def.tag_type) {
                            out.push(Diagnostic::new(
                                &el.name,
                                format!(
                                    "tag `{tag}` expects {} but got `{}`",
                                    def.tag_type,
                                    value.to_text()
                                ),
                            ));
                        }
                    }
                }
            }
            for def in &st.tags {
                if def.required && app.get(&def.name).is_none() {
                    out.push(Diagnostic::new(
                        &el.name,
                        format!(
                            "required tag `{}` of `<<{}>>` is missing",
                            def.name, st.name
                        ),
                    ));
                }
            }
        }
    }
}

/// PP011: control flow within each diagram is acyclic. Iteration must be
/// expressed with `<<loop+>>` so the structured transformation (and the
/// estimator) can handle it; graph back-edges are rejected.
struct ControlFlowAcyclic;
impl Rule for ControlFlowAcyclic {
    fn id(&self) -> &'static str {
        "PP011"
    }
    fn name(&self) -> &'static str {
        "control flow acyclic (use <<loop+>> for iteration)"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for d in &model.diagrams {
            // Kahn's algorithm: leftovers indicate a cycle.
            let mut indeg: HashMap<_, usize> = d.nodes.iter().map(|&n| (n, 0)).collect();
            for e in &d.edges {
                if let Some(slot) = indeg.get_mut(&e.to) {
                    *slot += 1;
                }
            }
            let mut queue: Vec<_> = indeg
                .iter()
                .filter(|(_, &deg)| deg == 0)
                .map(|(&n, _)| n)
                .collect();
            queue.sort(); // determinism
            let mut removed = 0;
            while let Some(n) = queue.pop() {
                removed += 1;
                for e in d.outgoing(n) {
                    if let Some(slot) = indeg.get_mut(&e.to) {
                        *slot -= 1;
                        if *slot == 0 {
                            queue.push(e.to);
                        }
                    }
                }
            }
            if removed < d.nodes.len() {
                let stuck: Vec<_> = indeg
                    .iter()
                    .filter(|(_, &deg)| deg > 0)
                    .map(|(&n, _)| model.element(n).name.clone())
                    .collect();
                out.push(Diagnostic::new(
                    &d.name,
                    format!(
                        "control-flow cycle involving {{{}}}; express iteration with <<loop+>>",
                        {
                            let mut s = stuck;
                            s.sort();
                            s.join(", ")
                        }
                    ),
                ));
            }
        }
    }
}

/// PP012: forks have ≥ 2 outgoing edges, joins ≥ 2 incoming, and each
/// diagram balances fork and join counts.
struct ForkJoinShape;
impl Rule for ForkJoinShape {
    fn id(&self) -> &'static str {
        "PP012"
    }
    fn name(&self) -> &'static str {
        "fork/join shape"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for d in &model.diagrams {
            let mut forks = 0;
            let mut joins = 0;
            for &nid in &d.nodes {
                let el = model.element(nid);
                match el.kind {
                    NodeKind::Fork => {
                        forks += 1;
                        if d.outgoing(nid).count() < 2 {
                            out.push(Diagnostic::new(
                                &el.name,
                                "fork has fewer than 2 outgoing edges",
                            ));
                        }
                    }
                    NodeKind::Join => {
                        joins += 1;
                        if d.incoming(nid).count() < 2 {
                            out.push(Diagnostic::new(
                                &el.name,
                                "join has fewer than 2 incoming edges",
                            ));
                        }
                    }
                    _ => {}
                }
            }
            if forks != joins {
                out.push(Diagnostic::new(
                    &d.name,
                    format!("{forks} fork(s) but {joins} join(s)"),
                ));
            }
        }
    }
}

/// PP013: every node is reachable from the diagram entry.
struct NodesReachable;
impl Rule for NodesReachable {
    fn id(&self) -> &'static str {
        "PP013"
    }
    fn name(&self) -> &'static str {
        "all nodes reachable from the entry"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for d in &model.diagrams {
            if d.nodes.is_empty() {
                continue;
            }
            let Ok(entry) = entry_of(model, d.id) else {
                continue;
            };
            let mut seen = HashSet::new();
            let mut stack = vec![entry];
            while let Some(n) = stack.pop() {
                if !seen.insert(n) {
                    continue;
                }
                for e in d.outgoing(n) {
                    stack.push(e.to);
                }
            }
            for &nid in &d.nodes {
                if !seen.contains(&nid) {
                    out.push(Diagnostic::new(
                        model.element(nid).name.clone(),
                        format!("unreachable from the entry of diagram `{}`", d.name),
                    ));
                }
            }
        }
    }
}

/// PP014: the composite (`<<activity+>>`/`<<loop+>>`/`<<parallel+>>`)
/// nesting relation between diagrams is acyclic — a diagram must not
/// (transitively) contain itself.
struct CompositeNestingAcyclic;
impl Rule for CompositeNestingAcyclic {
    fn id(&self) -> &'static str {
        "PP014"
    }
    fn name(&self) -> &'static str {
        "composite nesting acyclic"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        // Edges: owning diagram → body diagram.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for el in model.elements() {
            if let NodeKind::CallActivity(sub) = el.kind {
                edges.push((el.diagram.0, sub.0));
            }
        }
        let n = model.diagrams.len();
        // DFS cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; n];
        fn dfs(
            u: usize,
            edges: &[(usize, usize)],
            color: &mut [Color],
            model: &Model,
            out: &mut Vec<Diagnostic>,
        ) {
            color[u] = Color::Gray;
            for &(a, b) in edges {
                if a != u {
                    continue;
                }
                match color[b] {
                    Color::Gray => out.push(Diagnostic::new(
                        model.diagrams[b].name.clone(),
                        "composite nesting cycle: diagram (transitively) contains itself",
                    )),
                    Color::White => dfs(b, edges, color, model, out),
                    Color::Black => {}
                }
            }
            color[u] = Color::Black;
        }
        for u in 0..n {
            if color[u] == Color::White {
                dfs(u, &edges, &mut color, model, out);
            }
        }
    }
}

/// PP015: decision nodes have one incoming edge; merge nodes have ≥ 2
/// incoming and exactly one outgoing.
struct DecisionMergeDegree;
impl Rule for DecisionMergeDegree {
    fn id(&self) -> &'static str {
        "PP015"
    }
    fn name(&self) -> &'static str {
        "decision/merge degrees"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        for d in &model.diagrams {
            for &nid in &d.nodes {
                let el = model.element(nid);
                match el.kind {
                    NodeKind::Decision if d.incoming(nid).count() != 1 => {
                        out.push(Diagnostic::new(
                            &el.name,
                            "decision node should have exactly one incoming edge",
                        ));
                    }
                    NodeKind::Decision => {}
                    NodeKind::Merge => {
                        if d.incoming(nid).count() < 2 {
                            out.push(Diagnostic::new(
                                &el.name,
                                "merge node should join ≥ 2 flows",
                            ));
                        }
                        if d.outgoing(nid).count() != 1 {
                            out.push(Diagnostic::new(
                                &el.name,
                                "merge node should have exactly one outgoing edge",
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// PP016: collective operations (`barrier`, `broadcast`, `reduce`, …)
/// reachable only through a rank-dependent guard (`pid` free in the
/// guard) diverge across ranks and hang at evaluation time — the classic
/// MPI programming error. Reported as a warning: advanced models may
/// genuinely want it and handle the consequences.
struct CollectivesNotRankGuarded;
impl Rule for CollectivesNotRankGuarded {
    fn id(&self) -> &'static str {
        "PP016"
    }
    fn name(&self) -> &'static str {
        "collectives not guarded by rank"
    }
    fn check(&self, model: &Model, out: &mut Vec<Diagnostic>) {
        const COLLECTIVES: &[&str] = &[
            "barrier",
            "broadcast",
            "reduce",
            "allreduce",
            "scatter",
            "gather",
        ];
        for d in &model.diagrams {
            // For each decision, find rank-dependent guards and scan the
            // guarded arm (transitively, within this diagram) for
            // collectives.
            for &nid in &d.nodes {
                if model.element(nid).kind != NodeKind::Decision {
                    continue;
                }
                for edge in d.outgoing(nid) {
                    let Some(guard) = &edge.guard else { continue };
                    if guard == "else" {
                        continue;
                    }
                    let Ok(expr) = parse_expression(guard) else {
                        continue;
                    };
                    let mut free = Vec::new();
                    expr.free_vars(&mut free);
                    if !free.iter().any(|v| v == "pid" || v == "tid") {
                        continue;
                    }
                    // BFS from the arm head until a merge node.
                    let mut stack = vec![edge.to];
                    let mut seen = HashSet::new();
                    while let Some(n) = stack.pop() {
                        if !seen.insert(n) {
                            continue;
                        }
                        let el = model.element(n);
                        if el.kind == NodeKind::Merge {
                            continue;
                        }
                        if let Some(st) = el.stereotype_name() {
                            if COLLECTIVES.contains(&st) {
                                out.push(Diagnostic::new(
                                    &el.name,
                                    format!(
                                        "collective `<<{st}>>` is only reached when `{guard}` holds — ranks will diverge and the evaluation will deadlock"
                                    ),
                                ));
                            }
                        }
                        for e in d.outgoing(n) {
                            stack.push(e.to);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcf::McfConfig;
    use prophet_uml::{ModelBuilder, TagValue, VarType};

    fn diags_for(model: &Model) -> Vec<Diagnostic> {
        crate::check_model(model, &McfConfig::default())
    }

    fn has_rule(diags: &[Diagnostic], rule: &str) -> bool {
        diags.iter().any(|d| d.rule == rule)
    }

    /// A minimal well-formed model.
    fn good() -> ModelBuilder {
        let mut b = ModelBuilder::new("good");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A1", "0.5");
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        b
    }

    #[test]
    fn good_model_no_errors() {
        let m = good().build();
        let diags = diags_for(&m);
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    }

    #[test]
    fn pp001_bad_name() {
        let mut b = good();
        let main = b.main_diagram();
        b.action(main, "bad name!", "1");
        // Keep reachability rules quiet: disconnected node triggers PP013
        // (warning) but PP001 is the error we assert.
        let diags = diags_for(&b.build());
        assert!(has_rule(&diags, "PP001"), "{diags:?}");
    }

    #[test]
    fn pp002_duplicate_names() {
        let mut b = good();
        let main = b.main_diagram();
        b.action(main, "A1", "1"); // duplicate of the good() A1
        let diags = diags_for(&b.build());
        assert!(has_rule(&diags, "PP002"), "{diags:?}");
    }

    #[test]
    fn pp003_two_initials() {
        let mut b = good();
        let main = b.main_diagram();
        b.initial(main, "start2");
        let diags = diags_for(&b.build());
        assert!(has_rule(&diags, "PP003"), "{diags:?}");
    }

    #[test]
    fn pp004_cross_diagram_edge() {
        let mut b = ModelBuilder::new("x");
        let main = b.main_diagram();
        let sub = b.diagram("sub");
        let a = b.action(main, "A", "1");
        let s = b.action(sub, "S", "1");
        b.flow(main, a, s); // S is not in main
        let diags = diags_for(&b.build());
        assert!(has_rule(&diags, "PP004"), "{diags:?}");
    }

    #[test]
    fn pp005_decision_issues() {
        let mut b = ModelBuilder::new("dec");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let d = b.decision(main, "dec");
        let a = b.action(main, "A", "1");
        let c = b.action(main, "B", "1");
        let f = b.final_node(main, "end");
        b.flow(main, i, d);
        b.guarded_flow(main, d, a, "GV >"); // unparsable guard
        b.flow(main, d, c); // unguarded out of decision
        b.flow(main, a, f);
        b.flow(main, c, f);
        let m = {
            let mut b = b;
            b.global("GV", VarType::Int, None);
            b.build()
        };
        let diags = diags_for(&m);
        let pp005: Vec<_> = diags.iter().filter(|d| d.rule == "PP005").collect();
        assert!(
            pp005.iter().any(|d| d.message.contains("does not parse")),
            "{diags:?}"
        );
        assert!(
            pp005.iter().any(|d| d.message.contains("no guard")),
            "{diags:?}"
        );
    }

    #[test]
    fn pp006_bad_cost() {
        let mut b = good();
        let main = b.main_diagram();
        b.action(main, "A9", "1 + * 2");
        let diags = diags_for(&b.build());
        assert!(has_rule(&diags, "PP006"), "{diags:?}");
    }

    #[test]
    fn pp007_bad_code_fragment() {
        let mut b = good();
        let main = b.main_diagram();
        let a = b.action(main, "A9", "1");
        b.attach_code(a, "GV = ;");
        let diags = diags_for(&b.build());
        assert!(has_rule(&diags, "PP007"), "{diags:?}");
    }

    #[test]
    fn pp008_function_issues() {
        let mut b = good();
        b.function("F", &["x", "x"], "x + 1");
        b.function("F", &[], "1");
        b.function("G", &[], "Undefined(2)");
        let diags = diags_for(&b.build());
        let pp008: Vec<_> = diags.iter().filter(|d| d.rule == "PP008").collect();
        assert!(
            pp008
                .iter()
                .any(|d| d.message.contains("duplicate parameter")),
            "{diags:?}"
        );
        assert!(
            pp008.iter().any(|d| d.message.contains("more than once")),
            "{diags:?}"
        );
        assert!(
            pp008
                .iter()
                .any(|d| d.message.contains("undefined function")),
            "{diags:?}"
        );
    }

    #[test]
    fn pp009_undeclared_variable() {
        let mut b = good();
        let main = b.main_diagram();
        b.action(main, "A9", "mystery * 2");
        let diags = diags_for(&b.build());
        assert!(has_rule(&diags, "PP009"), "{diags:?}");
    }

    #[test]
    fn pp009_system_vars_allowed() {
        let mut b = good();
        let main = b.main_diagram();
        b.action(main, "A9", "0.1 * P + 0.01 * pid + log2(N)");
        let diags = diags_for(&b.build());
        assert!(!has_rule(&diags, "PP009"), "{diags:?}");
    }

    #[test]
    fn pp010_profile_conformance() {
        let mut b = good();
        let main = b.main_diagram();
        let a = b.action(main, "A9", "1");
        b.set_tag(a, "nonsense", TagValue::Int(1));
        let a2 = b.action(main, "A10", "1");
        b.set_tag(a2, "time", TagValue::Str("ten".into())); // wrong type
        let diags = diags_for(&b.build());
        let pp010: Vec<_> = diags.iter().filter(|d| d.rule == "PP010").collect();
        assert!(
            pp010
                .iter()
                .any(|d| d.message.contains("no tag `nonsense`")),
            "{diags:?}"
        );
        assert!(
            pp010.iter().any(|d| d.message.contains("expects Double")),
            "{diags:?}"
        );
    }

    #[test]
    fn pp010_required_tag_missing() {
        let mut b = good();
        let main = b.main_diagram();
        b.mpi(main, "s0", "send", &[]); // missing required `dest`
        let diags = diags_for(&b.build());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "PP010" && d.message.contains("`dest`")),
            "{diags:?}"
        );
    }

    #[test]
    fn pp011_cycle_detected() {
        let mut b = ModelBuilder::new("cyc");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A", "1");
        let c = b.action(main, "B", "1");
        b.flow(main, i, a);
        b.flow(main, a, c);
        b.flow(main, c, a); // back-edge
        let diags = diags_for(&b.build());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "PP011" && d.message.contains("loop+")),
            "{diags:?}"
        );
    }

    #[test]
    fn pp012_fork_join() {
        let mut b = ModelBuilder::new("fj");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let fork = b.fork(main, "fork");
        let a = b.action(main, "A", "1");
        b.flow(main, i, fork);
        b.flow(main, fork, a); // only one branch; no join at all
        let diags = diags_for(&b.build());
        let pp012: Vec<_> = diags.iter().filter(|d| d.rule == "PP012").collect();
        assert!(
            pp012
                .iter()
                .any(|d| d.message.contains("fewer than 2 outgoing")),
            "{diags:?}"
        );
        assert!(
            pp012
                .iter()
                .any(|d| d.message.contains("1 fork(s) but 0 join(s)")),
            "{diags:?}"
        );
    }

    #[test]
    fn pp013_unreachable() {
        let mut b = good();
        let main = b.main_diagram();
        b.action(main, "Island", "1");
        let diags = diags_for(&b.build());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "PP013" && d.location == "Island"),
            "{diags:?}"
        );
    }

    #[test]
    fn pp014_self_nesting() {
        let mut b = ModelBuilder::new("selfnest");
        let main = b.main_diagram();
        let sub = b.diagram("S");
        b.call_activity(main, "C0", sub);
        // S contains a composite whose body is S itself.
        b.call_activity(sub, "C1", sub);
        let diags = diags_for(&b.build());
        assert!(has_rule(&diags, "PP014"), "{diags:?}");
    }

    #[test]
    fn pp015_merge_degree() {
        let mut b = ModelBuilder::new("md");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let m = b.merge(main, "merge");
        let f = b.final_node(main, "end");
        b.flow(main, i, m); // only one incoming
        b.flow(main, m, f);
        let diags = diags_for(&b.build());
        assert!(has_rule(&diags, "PP015"), "{diags:?}");
    }

    #[test]
    fn pp016_rank_guarded_collective() {
        let mut b = ModelBuilder::new("diverge");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let d = b.decision(main, "who");
        let bar = b.mpi(main, "Sync", "barrier", &[]);
        let a = b.action(main, "Work", "1");
        let m = b.merge(main, "m");
        let f = b.final_node(main, "end");
        b.flow(main, i, d);
        b.guarded_flow(main, d, bar, "pid == 0"); // only rank 0 barriers!
        b.guarded_flow(main, d, a, "else");
        b.flow(main, bar, m);
        b.flow(main, a, m);
        b.flow(main, m, f);
        let diags = diags_for(&b.build());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "PP016" && d.message.contains("diverge")),
            "{diags:?}"
        );
    }

    #[test]
    fn pp016_not_triggered_by_data_guards() {
        let mut b = ModelBuilder::new("fine");
        b.global("GV", VarType::Int, Some("0"));
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let d = b.decision(main, "what");
        let bar = b.mpi(main, "Sync", "barrier", &[]);
        let a = b.action(main, "Work", "1");
        let m = b.merge(main, "m");
        let f = b.final_node(main, "end");
        b.flow(main, i, d);
        b.guarded_flow(main, d, bar, "GV == 0"); // same on all ranks
        b.guarded_flow(main, d, a, "else");
        b.flow(main, bar, m);
        b.flow(main, a, m);
        b.flow(main, m, f);
        let diags = diags_for(&b.build());
        assert!(!has_rule(&diags, "PP016"), "{diags:?}");
    }

    #[test]
    fn diagnostics_display() {
        let mut b = good();
        let main = b.main_diagram();
        b.action(main, "A9", "1 +");
        let diags = diags_for(&b.build());
        let text = diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("[PP006]"), "{text}");
        assert!(text.contains("error"), "{text}");
    }
}
