//! Term syntax for trees: one reader and one writer for every term
//! language.
//!
//! The paper writes documents as terms over `Σ` — `r(b, a, c)` — and
//! editing scripts as terms over the edit alphabet `E(Σ)` (§2), with
//! identifiers added in the figures. One reader ([`read_term`]) and one
//! writer ([`write_term`]) serve every such language; they are generic
//! over the *node head*, everything of a node before its child list:
//!
//! * documents write `label` or `label#id` — [`parse_term`] and
//!   [`to_term`] omit identifiers (the reader allocates fresh ones),
//!   [`parse_term_with_ids`] and [`to_term_with_ids`] pin them;
//! * editing scripts (`xvu_edit`) write `op:label#id`.
//!
//! Grammar (whitespace may surround every token except `#`):
//!
//! ```text
//! term  ::= head ( '(' term (',' term)* ')' )?
//! head  ::= label ('#' nat)?                      -- documents
//! label ::= [A-Za-z_][A-Za-z0-9_-]*
//! ```
//!
//! The reader appends each node to one arena as soon as its head is read
//! — so the arena is in document order — keeps a stack of the nodes whose
//! child list is open, and writes each child list once, when it closes
//! ([`crate::PreorderBuilder`]); the writer walks on an explicit stack.
//! Neither recurses, so a deep term costs heap, not native stack, and
//! reading is linear in the input. A repeated identifier is reported
//! where its second occurrence is read.

use crate::alphabet::Alphabet;
use crate::build::PreorderBuilder;
use crate::error::TreeError;
use crate::node::{NodeId, NodeIdGen};
use crate::tree::{DocTree, Tree};

/// Parses a plain term such as `r(a, b(c), a)`, interning labels and
/// allocating fresh node identifiers from `gen`.
pub fn parse_term(
    alpha: &mut Alphabet,
    gen: &mut NodeIdGen,
    input: &str,
) -> Result<DocTree, TreeError> {
    read_term(input, gen, "term", |cur| {
        Ok((alpha.intern(cur.label("expected a label")?), None))
    })
}

/// Parses a term in which every node may carry an explicit identifier,
/// e.g. `r#0(a#1, b#2(c#7))`. Nodes without `#id` get fresh identifiers;
/// `gen` is bumped past every explicit identifier so later fresh nodes never
/// collide.
pub fn parse_term_with_ids(
    alpha: &mut Alphabet,
    gen: &mut NodeIdGen,
    input: &str,
) -> Result<DocTree, TreeError> {
    read_term(input, gen, "term", |cur| {
        let label = alpha.intern(cur.label("expected a label")?);
        Ok((label, cur.id("node identifier out of range")?))
    })
}

/// Renders a tree as a plain term (identifiers omitted).
pub fn to_term(tree: &DocTree, alpha: &Alphabet) -> String {
    write_term(tree, |out, _, &label| out.push_str(alpha.name(label)))
}

/// Renders a tree as an identifier-annotated term (`label#id(...)`).
pub fn to_term_with_ids(tree: &DocTree, alpha: &Alphabet) -> String {
    write_term(tree, |out, id, &label| {
        out.push_str(alpha.name(label));
        out.push('#');
        out.push_str(&id.0.to_string());
    })
}

/// Reads one term, with `head` reading each node head.
///
/// `head` starts at the first byte of a head (whitespace skipped) and
/// returns the node's label and its explicit identifier, if the head
/// carries one. Explicit identifiers bump `gen` past themselves; nodes
/// without one get `gen.fresh()`, in document order, and a node without
/// one once `gen` is exhausted (an explicit [`NodeId::MAX`] bumps it
/// past the end) is a [`TreeError::Parse`] at its head. `what` names the
/// language in the trailing-input error.
///
/// The tree's arena holds the nodes in document order. A repeated
/// identifier fails with [`TreeError::DuplicateNodeId`] where its second
/// occurrence is read; every syntax error is a [`TreeError::Parse`] at
/// the byte where reading stopped.
pub fn read_term<L>(
    input: &str,
    gen: &mut NodeIdGen,
    what: &str,
    mut head: impl FnMut(&mut TermCursor<'_>) -> Result<(L, Option<NodeId>), TreeError>,
) -> Result<Tree<L>, TreeError> {
    let mut cur = TermCursor {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let mut node = |cur: &mut TermCursor<'_>, gen: &mut NodeIdGen| {
        cur.skip_ws();
        let (label, id) = head(cur)?;
        let id = match id {
            Some(id) => {
                gen.bump_past(id);
                id
            }
            None if gen.remaining() == 0 => {
                return Err(cur.error("node identifier space exhausted"))
            }
            None => gen.fresh(),
        };
        Ok::<_, TreeError>((id, label))
    };
    let (root, label) = node(&mut cur, gen)?;
    // A term of n nodes has one '(' per child list and a ',' between
    // siblings: n = 1 + #'(' + #','. Every node but the root takes at
    // least two bytes, which bounds the count on malformed input.
    let marks = input.bytes().filter(|&b| b == b'(' || b == b',').count();
    let mut tree = PreorderBuilder::with_capacity(root, label, 1 + marks.min(input.len() / 2));
    // `open` holds the nodes whose child list is open, innermost last;
    // `last` is the node just read.
    let mut open: Vec<NodeId> = Vec::new();
    let mut last = root;
    loop {
        cur.skip_ws();
        if cur.eat(b'(') {
            open.push(last);
        } else {
            // `last` is complete: close every list that ends here, then
            // go on to the next sibling or finish.
            loop {
                if open.is_empty() {
                    if cur.pos != cur.bytes.len() {
                        return Err(cur.error(format!("trailing input after {what}")));
                    }
                    return Ok(tree.finish());
                }
                if cur.eat(b',') {
                    break;
                }
                if !cur.eat(b')') {
                    return Err(cur.error("expected ',' or ')'"));
                }
                open.pop();
                cur.skip_ws();
            }
        }
        let parent = *open.last().expect("a child list is open");
        let (id, label) = node(&mut cur, gen)?;
        tree.child(parent, id, label)?;
        last = id;
    }
}

/// Writes `tree` as a term, with `head` writing each node head (the
/// node's identifier and label) to the output.
pub fn write_term<L>(tree: &Tree<L>, mut head: impl FnMut(&mut String, NodeId, &L)) -> String {
    let mut out = String::new();
    // Each frame is an open child list and the index of its next child.
    let mut open: Vec<(&[NodeId], usize)> = Vec::new();
    let mut next = Some(tree.root());
    loop {
        if let Some(n) = next.take() {
            head(&mut out, n, &tree.node(n).label);
            let children = tree.children(n);
            if !children.is_empty() {
                out.push('(');
                open.push((children, 0));
            }
        }
        let Some((children, i)) = open.last_mut() else {
            return out;
        };
        match children.get(*i) {
            Some(&c) => {
                if *i > 0 {
                    out.push_str(", ");
                }
                *i += 1;
                next = Some(c);
            }
            None => {
                out.push(')');
                open.pop();
            }
        }
    }
}

/// A position in term text, handed to a node-head reader by
/// [`read_term`].
#[derive(Debug)]
pub struct TermCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> TermCursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes the next byte if it is `b`.
    pub fn eat(&mut self, b: u8) -> bool {
        if self.peek() != Some(b) {
            return false;
        }
        self.pos += 1;
        true
    }

    /// Skips ASCII whitespace.
    pub fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Reads a label, `[A-Za-z_][A-Za-z0-9_-]*`, failing with `msg` if
    /// none starts here.
    pub fn label(&mut self, msg: &str) -> Result<&'a str, TreeError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => self.pos += 1,
            _ => return Err(self.error(msg)),
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            self.pos += 1;
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii"))
    }

    /// Reads an optional `#nat` identifier; `overflow` is the message for
    /// digits beyond [`NodeId::MAX`].
    pub fn id(&mut self, overflow: &str) -> Result<Option<NodeId>, TreeError> {
        if !self.eat(b'#') {
            return Ok(None);
        }
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected digits after '#'"));
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match digits.parse() {
            Ok(raw) if raw <= NodeId::MAX.0 => Ok(Some(NodeId(raw))),
            _ => Err(self.error(overflow)),
        }
    }

    /// A parse error at the current byte.
    pub fn error(&self, msg: impl Into<String>) -> TreeError {
        TreeError::Parse {
            at: self.pos,
            msg: msg.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_term() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term(&mut alpha, &mut gen, "r(a, b(c), a)").unwrap();
        assert_eq!(t.size(), 5);
        let r = t.root();
        assert_eq!(alpha.name(t.label(r)), "r");
        let kids = t.children(r).to_vec();
        assert_eq!(kids.len(), 3);
        assert_eq!(alpha.name(t.label(kids[1])), "b");
        assert_eq!(t.children(kids[1]).len(), 1);
    }

    #[test]
    fn parse_leaf() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term(&mut alpha, &mut gen, "  x ").unwrap();
        assert_eq!(t.size(), 1);
    }

    #[test]
    fn round_trip_plain() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let src = "r(a, b(c, d), a)";
        let t = parse_term(&mut alpha, &mut gen, src).unwrap();
        assert_eq!(to_term(&t, &alpha), src);
    }

    #[test]
    fn explicit_ids_are_honoured() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, b#7(c#10))").unwrap();
        assert_eq!(t.root(), NodeId(0));
        assert!(t.contains(NodeId(7)));
        assert!(t.contains(NodeId(10)));
        // gen must be bumped past 10
        assert!(gen.peek().0 > 10);
    }

    #[test]
    fn explicit_ids_round_trip() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let src = "r#0(a#1, b#7(c#10))";
        let t = parse_term_with_ids(&mut alpha, &mut gen, src).unwrap();
        assert_eq!(to_term_with_ids(&t, &alpha), src);
    }

    #[test]
    fn duplicate_explicit_ids_rejected() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let r = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, b#1)");
        assert!(matches!(r, Err(TreeError::DuplicateNodeId(_))));
    }

    #[test]
    fn parse_errors_are_located() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        for bad in ["", "r(", "r(a,", "r(a))", "r(a b)", "(a)", "r#x"] {
            let res = parse_term_with_ids(&mut alpha, &mut gen, bad);
            assert!(res.is_err(), "input {bad:?} should fail");
        }
    }

    #[test]
    fn a_node_without_an_identifier_after_the_last_one_is_a_parse_error() {
        // `#18446744073709551614` is `NodeId::MAX`: it leaves no identifier
        // for the `a` after it
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let err = parse_term_with_ids(&mut alpha, &mut gen, "r(a#18446744073709551614, a)")
            .expect_err("no identifier is left for the second a");
        assert!(
            matches!(&err, TreeError::Parse { at: 27, msg } if msg.contains("exhausted")),
            "{err:?}"
        );
    }

    #[test]
    fn hash_in_plain_mode_is_rejected() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        assert!(parse_term(&mut alpha, &mut gen, "r#0").is_err());
    }

    #[test]
    fn labels_allow_underscore_and_dash() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term(&mut alpha, &mut gen, "patient_record(lab-result)").unwrap();
        assert_eq!(t.size(), 2);
    }
}
