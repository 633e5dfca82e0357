//! The element names of one program, as `Copy` ids.
//!
//! Every op an elaboration emits names the UML element it came from (a
//! trace label, an error context). [`Program::resolve`](crate::Program::resolve)
//! numbers each distinct element name of the program once, in
//! [`ElementNames`], and the resolved tree and every [`PrimOp`](crate::PrimOp)
//! carry the [`ElementId`] instead of the text. Elaboration therefore
//! emits plain data: building, replaying or dropping an op list touches
//! no shared reference count. The text is looked up only where text is
//! produced — trace events, error messages and
//! [`op_digest`](crate::op_digest).
//!
//! A table belongs to one program (there is no process-wide interner),
//! so its memory goes with the program's.

use std::collections::HashMap;
use std::sync::Arc;

/// One element name of a program: an index into its [`ElementNames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(u32);

/// A program's element names, each stored once and numbered in the
/// order resolution first meets it.
#[derive(Clone, Debug, Default)]
pub struct ElementNames {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, ElementId>,
}

impl ElementNames {
    /// The id of `name`, numbering it if it is new. Shares the `Arc`
    /// with the [`Step`](crate::Step) that named it.
    pub(crate) fn intern(&mut self, name: &Arc<str>) -> ElementId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = ElementId(
            u32::try_from(self.names.len()).expect("fewer than 2^32 element names per program"),
        );
        self.names.push(Arc::clone(name));
        self.ids.insert(Arc::clone(name), id);
        id
    }

    /// The text of `id`.
    ///
    /// # Panics
    /// If `id` was not numbered by this table.
    pub fn name(&self, id: ElementId) -> &str {
        &self.names[id.0 as usize]
    }

    /// The id of the element named `name`, if the program has one.
    pub fn id(&self, name: &str) -> Option<ElementId> {
        self.ids.get(name).copied()
    }
}
