//! # prophet-xml
//!
//! A small, dependency-free XML 1.0 subset used by the Performance Prophet
//! reproduction for every on-disk artifact of the original system: model
//! files (`Models (XML)`), the model-checking file (`MCF`), tool
//! configuration files (`CF`), and trace files when exported as XML.
//!
//! The original Performance Prophet (Pllana et al., ICPP-W 2008) relied on
//! Java XML tooling; Rust's XMI/UML ecosystem is thin, so this crate is a
//! purpose-built substrate providing exactly what the pipeline needs:
//!
//! * [`reader`] — a pull (event) parser with line/column error reporting,
//! * [`node`] — a DOM-style tree ([`Document`], [`Element`]),
//! * [`writer`] — a pretty-printing serializer with correct escaping.
//!
//! Supported subset: elements, attributes, character data, CDATA sections,
//! comments, processing instructions, XML declarations, and the five
//! predefined entities (`&lt; &gt; &amp; &apos; &quot;`) plus numeric
//! character references. DTDs and external entities are intentionally
//! rejected (the Prophet file formats never use them, and rejecting them
//! avoids entity-expansion pathologies).
//!
//! ## Quickstart
//!
//! ```
//! use prophet_xml::parse_document;
//!
//! let doc = parse_document("<model name='demo'><action id='1'/></model>").unwrap();
//! assert_eq!(doc.root.name, "model");
//! assert_eq!(doc.root.attr("name"), Some("demo"));
//! let out = doc.to_xml_string();
//! assert!(out.contains("<action id=\"1\"/>"));
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod node;
pub mod reader;
pub mod writer;

pub use error::{XmlError, XmlResult};
pub use node::{Document, Element, Node};
pub use reader::{Event, Reader};
pub use writer::{WriteOptions, Writer};

/// Parse a complete XML document into a DOM tree.
///
/// This is the main convenience entry point; it drives [`Reader`] to
/// completion and materializes the tree.
pub fn parse_document(input: &str) -> XmlResult<Document> {
    node::Document::parse(input)
}

/// Escape a string for use as XML character data (`<`, `>`, `&`).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape a string for use inside a double-quoted XML attribute value.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\n' => out.push_str("&#10;"),
            '\t' => out.push_str("&#9;"),
            '\r' => out.push_str("&#13;"),
            _ => out.push(c),
        }
    }
    out
}

/// Returns true if `name` is a valid XML name for this subset:
/// first char is a letter, `_`, or `:`; rest are letters, digits,
/// `_ : . -`.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || matches!(c, '_' | ':' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_basic() {
        assert_eq!(escape_text("a<b>&c"), "a&lt;b&gt;&amp;c");
        assert_eq!(escape_text("plain"), "plain");
    }

    #[test]
    fn escape_attr_quotes_and_whitespace() {
        assert_eq!(escape_attr("say \"hi\""), "say &quot;hi&quot;");
        assert_eq!(escape_attr("a\nb"), "a&#10;b");
        assert_eq!(escape_attr("a\tb"), "a&#9;b");
    }

    #[test]
    fn valid_names() {
        assert!(is_valid_name("model"));
        assert!(is_valid_name("_x"));
        assert!(is_valid_name("xmi:id"));
        assert!(is_valid_name("a-b.c"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("1abc"));
        assert!(!is_valid_name("-x"));
        assert!(!is_valid_name("a b"));
    }

    #[test]
    fn quickstart_roundtrip() {
        let doc = parse_document("<m a='1'><c/>text</m>").unwrap();
        let s = doc.to_xml_string();
        let doc2 = parse_document(&s).unwrap();
        assert_eq!(doc.root, doc2.root);
    }
}
