//! The one-pass tree readers read exactly what the recursive readers
//! they replaced read, and the explicit-stack writers print exactly what
//! the recursive writers printed.
//!
//! The term reader ([`xvu_tree::read_term`], behind `parse_term`,
//! `parse_term_with_ids` and `parse_script`) and the XML reader append
//! each node to one arena as soon as its head is read, keeping a stack of
//! open nodes. Before, each node became a one-node tree and each finished
//! subtree was grafted into its parent, recursing once per level. This
//! file keeps test-only copies of those recursive readers and writers and
//! feeds both the same inputs: generated terms and scripts, the
//! enumerated corpus's documents and updates, and single corruptions of
//! each. On every input the two must agree — the same tree in the same
//! arena order, the same identifier generator, alphabet and printed text,
//! or the same `Err` — with two exceptions, both from reporting a
//! repeated identifier where its second occurrence is read instead of
//! where its subtree is grafted:
//!
//! * an input with a repeated identifier and a second fault reports
//!   whichever fault comes first in reading order;
//! * XML reports a repeated `xvu:id` at the end of the start tag that
//!   repeats it, not after that element's end tag.
//!
//! Every exception taken is checked to be one of these.

use proptest::prelude::*;
use std::collections::BTreeSet;
use xml_view_update::edit::{parse_script_with_gen, EditError};
use xml_view_update::prelude::*;
use xml_view_update::tree::TreeError;
use xml_view_update::workload::enumo::{enumerate_instances, EnumBudget};
use xml_view_update::xml::XmlError;

// ---------------------------------------------------------------------
// The recursive readers and writers, as they were before the one-pass
// codec.
// ---------------------------------------------------------------------

mod reference {
    use super::*;

    /// The document term parser (`label#id`) and the script term parser
    /// (`op:label#id`) were two copies of one recursive descent.
    pub struct TermParser<'a> {
        alpha: &'a mut Alphabet,
        bytes: &'a [u8],
        pos: usize,
        allow_ids: bool,
    }

    pub fn parse_term(
        alpha: &mut Alphabet,
        gen: &mut NodeIdGen,
        input: &str,
        allow_ids: bool,
    ) -> Result<DocTree, TreeError> {
        let mut p = TermParser {
            alpha,
            bytes: input.as_bytes(),
            pos: 0,
            allow_ids,
        };
        let t = p.term(gen)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input after term"));
        }
        Ok(t)
    }

    impl TermParser<'_> {
        fn term(&mut self, gen: &mut NodeIdGen) -> Result<DocTree, TreeError> {
            self.skip_ws();
            let label = self.label()?;
            let sym = self.alpha.intern(&label);
            let id = self.explicit_id(gen)?;
            let mut tree = Tree::leaf_with_id(id, sym);
            self.skip_ws();
            if self.peek() == Some(b'(') {
                self.pos += 1;
                loop {
                    let child = self.term(gen)?;
                    let pos = tree.children(tree.root()).len();
                    tree.attach_subtree(tree.root(), pos, child)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected ',' or ')'")),
                    }
                }
            }
            Ok(tree)
        }

        fn explicit_id(&mut self, gen: &mut NodeIdGen) -> Result<NodeId, TreeError> {
            if self.allow_ids && self.peek() == Some(b'#') {
                self.pos += 1;
                let start = self.pos;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                if self.pos == start {
                    return Err(self.err("expected digits after '#'"));
                }
                let digits = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
                let raw: u64 = digits
                    .parse()
                    .map_err(|_| self.err("node identifier out of range"))?;
                let id = NodeId(raw);
                gen.bump_past(id);
                Ok(id)
            } else {
                Ok(gen.fresh())
            }
        }

        fn label(&mut self) -> Result<String, TreeError> {
            let start = self.pos;
            match self.peek() {
                Some(b) if b.is_ascii_alphabetic() || b == b'_' => self.pos += 1,
                _ => return Err(self.err("expected a label")),
            }
            while self
                .peek()
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
            {
                self.pos += 1;
            }
            Ok(std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("ascii")
                .to_owned())
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
                self.pos += 1;
            }
        }

        fn err(&self, msg: &str) -> TreeError {
            TreeError::Parse {
                at: self.pos,
                msg: msg.to_owned(),
            }
        }
    }

    pub struct ScriptParser<'a> {
        alpha: &'a mut Alphabet,
        bytes: &'a [u8],
        pos: usize,
    }

    pub fn parse_script(
        alpha: &mut Alphabet,
        gen: &mut NodeIdGen,
        input: &str,
    ) -> Result<Script, EditError> {
        let mut p = ScriptParser {
            alpha,
            bytes: input.as_bytes(),
            pos: 0,
        };
        let t = p.term(gen)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input after script"));
        }
        Ok(t)
    }

    impl ScriptParser<'_> {
        fn term(&mut self, gen: &mut NodeIdGen) -> Result<Script, EditError> {
            self.skip_ws();
            let op_name = self.ident()?;
            let op = match op_name.as_str() {
                "ins" => EditOp::Ins,
                "del" => EditOp::Del,
                "nop" => EditOp::Nop,
                other => return Err(self.err(&format!("unknown operation {other:?}"))),
            };
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after operation"));
            }
            self.pos += 1;
            let label_name = self.ident()?;
            let label = self.alpha.intern(&label_name);
            let id = if self.peek() == Some(b'#') {
                self.pos += 1;
                let start = self.pos;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                if start == self.pos {
                    return Err(self.err("expected digits after '#'"));
                }
                let raw: u64 = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("ascii")
                    .parse()
                    .map_err(|_| self.err("identifier out of range"))?;
                let id = NodeId(raw);
                gen.bump_past(id);
                id
            } else {
                gen.fresh()
            };
            let mut tree = Tree::leaf_with_id(id, ELabel { op, label });
            self.skip_ws();
            if self.peek() == Some(b'(') {
                self.pos += 1;
                loop {
                    let child = self.term(gen)?;
                    let pos = tree.children(tree.root()).len();
                    tree.attach_subtree(tree.root(), pos, child)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected ',' or ')'")),
                    }
                }
            }
            Ok(tree)
        }

        fn ident(&mut self) -> Result<String, EditError> {
            self.skip_ws();
            let start = self.pos;
            match self.peek() {
                Some(b) if b.is_ascii_alphabetic() || b == b'_' => self.pos += 1,
                _ => return Err(self.err("expected an identifier")),
            }
            while self
                .peek()
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
            {
                self.pos += 1;
            }
            Ok(std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("ascii")
                .to_owned())
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
                self.pos += 1;
            }
        }

        fn err(&self, msg: &str) -> EditError {
            EditError::Parse {
                at: self.pos,
                msg: msg.to_owned(),
            }
        }
    }

    pub struct XmlParser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    pub fn read_xml(
        alpha: &mut Alphabet,
        gen: &mut NodeIdGen,
        input: &str,
    ) -> Result<DocTree, XmlError> {
        let mut p = XmlParser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_misc()?;
        let tree = p.element(alpha, gen)?;
        p.skip_misc()?;
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after the root element"));
        }
        Ok(tree)
    }

    impl XmlParser<'_> {
        fn element(
            &mut self,
            alpha: &mut Alphabet,
            gen: &mut NodeIdGen,
        ) -> Result<DocTree, XmlError> {
            if self.peek() != Some(b'<') {
                return Err(self.err("expected '<'"));
            }
            self.pos += 1;
            let name = self.name()?;
            let label = alpha.intern(&name);
            let mut explicit_id: Option<NodeId> = None;
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b'/') | Some(b'>') => break,
                    Some(_) => {
                        let attr = self.name()?;
                        self.skip_ws();
                        if self.peek() != Some(b'=') {
                            return Err(self.err("expected '=' after attribute name"));
                        }
                        self.pos += 1;
                        self.skip_ws();
                        let value = self.quoted()?;
                        if attr == "xvu:id" {
                            let raw: u64 = value
                                .parse()
                                .map_err(|_| self.err("xvu:id must be a non-negative integer"))?;
                            explicit_id = Some(NodeId(raw));
                        }
                    }
                    None => return Err(self.err("unexpected end of input in tag")),
                }
            }
            let id = match explicit_id {
                Some(id) => {
                    gen.bump_past(id);
                    id
                }
                None => gen.fresh(),
            };
            let mut tree = Tree::leaf_with_id(id, label);
            if self.peek() == Some(b'/') {
                self.pos += 1;
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' after '/'"));
                }
                self.pos += 1;
                return Ok(tree);
            }
            self.pos += 1; // '>'
            loop {
                self.skip_misc()?;
                match (self.peek(), self.peek_at(1)) {
                    (Some(b'<'), Some(b'/')) => {
                        self.pos += 2;
                        let close = self.name()?;
                        if close != name {
                            return Err(self
                                .err(&format!("mismatched closing tag </{close}> for <{name}>")));
                        }
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return Err(self.err("expected '>' in closing tag"));
                        }
                        self.pos += 1;
                        return Ok(tree);
                    }
                    (Some(b'<'), _) => {
                        let child = self.element(alpha, gen)?;
                        let pos = tree.children(tree.root()).len();
                        tree.attach_subtree(tree.root(), pos, child)
                            .map_err(|e| self.err(&format!("duplicate identifier: {e}")))?;
                    }
                    (Some(_), _) => {
                        return Err(
                            self.err("text content is not supported (element-only data model)")
                        )
                    }
                    (None, _) => return Err(self.err("unexpected end of input in element")),
                }
            }
        }

        fn name(&mut self) -> Result<String, XmlError> {
            let start = self.pos;
            match self.peek() {
                Some(b) if b.is_ascii_alphabetic() || b == b'_' => self.pos += 1,
                _ => return Err(self.err("expected a name")),
            }
            while self
                .peek()
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b':')
            {
                self.pos += 1;
            }
            Ok(std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("ascii")
                .to_owned())
        }

        fn quoted(&mut self) -> Result<String, XmlError> {
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => q,
                _ => return Err(self.err("expected a quoted attribute value")),
            };
            self.pos += 1;
            let start = self.pos;
            while self.peek().is_some_and(|b| b != quote) {
                self.pos += 1;
            }
            if self.peek() != Some(quote) {
                return Err(self.err("unterminated attribute value"));
            }
            let v = std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("checked utf8 via input &str")
                .to_owned();
            self.pos += 1;
            Ok(v)
        }

        fn skip_misc(&mut self) -> Result<(), XmlError> {
            loop {
                self.skip_ws();
                if self.bytes[self.pos..].starts_with(b"<!--") {
                    match find(self.bytes, self.pos + 4, b"-->") {
                        Some(end) => self.pos = end + 3,
                        None => return Err(self.err("unterminated comment")),
                    }
                } else if self.bytes[self.pos..].starts_with(b"<?") {
                    match find(self.bytes, self.pos + 2, b"?>") {
                        Some(end) => self.pos = end + 2,
                        None => return Err(self.err("unterminated processing instruction")),
                    }
                } else {
                    return Ok(());
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn peek_at(&self, k: usize) -> Option<u8> {
            self.bytes.get(self.pos + k).copied()
        }

        fn skip_ws(&mut self) {
            while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
                self.pos += 1;
            }
        }

        fn err(&self, msg: &str) -> XmlError {
            XmlError::Parse {
                at: self.pos,
                msg: msg.to_owned(),
            }
        }
    }

    fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
        (from..haystack.len().saturating_sub(needle.len() - 1))
            .find(|&i| haystack[i..].starts_with(needle))
    }

    /// The recursive term printer; `head` writes one node head.
    pub fn write_term<L>(t: &Tree<L>, head: &dyn Fn(&mut String, NodeId, &L)) -> String {
        fn rec<L>(
            t: &Tree<L>,
            n: NodeId,
            head: &dyn Fn(&mut String, NodeId, &L),
            out: &mut String,
        ) {
            head(out, n, &t.node(n).label);
            let children = t.children(n);
            if !children.is_empty() {
                out.push('(');
                for (i, &c) in children.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    rec(t, c, head, out);
                }
                out.push(')');
            }
        }
        let mut out = String::new();
        rec(t, t.root(), head, &mut out);
        out
    }

    pub fn to_term(t: &DocTree, alpha: &Alphabet, ids: bool) -> String {
        write_term(t, &|out, n, &l| {
            out.push_str(alpha.name(l));
            if ids {
                out.push('#');
                out.push_str(&n.0.to_string());
            }
        })
    }

    pub fn script_to_term(s: &Script, alpha: &Alphabet) -> String {
        write_term(s, &|out, n, l| {
            out.push_str(l.op.name());
            out.push(':');
            out.push_str(alpha.name(l.label));
            out.push('#');
            out.push_str(&n.0.to_string());
        })
    }

    pub fn write_xml(t: &DocTree, alpha: &Alphabet, opts: &WriteOptions) -> String {
        fn rec(
            t: &DocTree,
            alpha: &Alphabet,
            n: NodeId,
            opts: &WriteOptions,
            depth: usize,
            out: &mut String,
        ) {
            if opts.pretty {
                for _ in 0..depth {
                    out.push_str("  ");
                }
            }
            let name = alpha.name(t.label(n));
            out.push('<');
            out.push_str(name);
            if opts.with_ids {
                out.push_str(&format!(" xvu:id=\"{}\"", n.0));
            }
            let children = t.children(n);
            if children.is_empty() {
                out.push_str("/>");
                if opts.pretty {
                    out.push('\n');
                }
                return;
            }
            out.push('>');
            if opts.pretty {
                out.push('\n');
            }
            for &c in children {
                rec(t, alpha, c, opts, depth + 1, out);
            }
            if opts.pretty {
                for _ in 0..depth {
                    out.push_str("  ");
                }
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
            if opts.pretty {
                out.push('\n');
            }
        }
        let mut out = String::new();
        rec(t, alpha, t.root(), opts, 0, &mut out);
        out
    }
}

// ---------------------------------------------------------------------
// Comparing the two readers on one input.
// ---------------------------------------------------------------------

/// How the inputs of one run split: read alike, or one of the two
/// documented exceptions.
#[derive(Debug, Default)]
struct Tally {
    same_ok: usize,
    same_err: usize,
    first_fault_first: usize,
    dup_at_start_tag: usize,
}

/// The explicit `#id`s of a term in reading order, each with the byte
/// just past it (digits beyond `u64` are not identifiers).
fn term_ids(input: &str) -> Vec<(u64, usize)> {
    let b = input.as_bytes();
    let mut out = Vec::new();
    for (i, _) in input.match_indices('#') {
        let end = (i + 1..=b.len())
            .find(|&j| j == b.len() || !b[j].is_ascii_digit())
            .unwrap();
        if let Ok(id) = input[i + 1..end].parse() {
            out.push((id, end));
        }
    }
    out
}

/// Where a reader reading in order finds `id` repeated: just past its
/// second occurrence.
fn second_occurrence(input: &str, id: NodeId) -> usize {
    term_ids(input)
        .into_iter()
        .filter(|&(i, _)| i == id.0)
        .nth(1)
        .unwrap_or_else(|| panic!("{id} is not repeated in {input:?}"))
        .1
}

/// The byte at which a term reader reading in order meets the fault
/// `e`.
fn fault_at(input: &str, e: &TreeError) -> usize {
    match e {
        TreeError::Parse { at, .. } => *at,
        TreeError::DuplicateNodeId(id) => second_occurrence(input, *id),
        other => panic!("a term reader raised {other:?}"),
    }
}

/// A term reader's fault: the new reader may report a repeated
/// identifier where the recursive one reported a later fault, never
/// anything else.
fn check_term_errors(input: &str, new: &TreeError, old: &TreeError, tally: &mut Tally) {
    if new == old {
        tally.same_err += 1;
        return;
    }
    assert!(
        matches!(new, TreeError::DuplicateNodeId(_))
            && fault_at(input, new) <= fault_at(input, old),
        "{input:?}: the one-pass reader gave {new:?}, the recursive one {old:?}"
    );
    tally.first_fault_first += 1;
}

/// Whether the start tag ending just before byte `at` carries
/// `xvu:id="id"`. (A fresh identifier only ever collides with a later
/// explicit one, so the tag that repeats an identifier always names it.)
fn start_tag_names(input: &str, at: usize, id: u64) -> bool {
    let head = &input[..at];
    head.ends_with('>')
        && head
            .rfind('<')
            .is_some_and(|lt| head[lt..].contains(&format!("xvu:id=\"{id}\"")))
}

fn arena_order<L>(t: &Tree<L>) -> Vec<NodeId> {
    t.slots().map(|s| t.id_at(s)).collect()
}

fn names(alpha: &Alphabet) -> Vec<String> {
    (0..alpha.len())
        .map(|i| alpha.name(Sym::from_index(i)).to_owned())
        .collect()
}

/// Reads `input` as a document term with both readers, with or without
/// identifiers, and requires the same outcome (and, if `print`, the
/// same printed text).
fn check_doc_term(input: &str, ids: bool, print: bool, tally: &mut Tally) {
    let (mut a_new, mut g_new) = (Alphabet::new(), NodeIdGen::starting_at(5));
    let (mut a_old, mut g_old) = (Alphabet::new(), NodeIdGen::starting_at(5));
    let new = if ids {
        parse_term_with_ids(&mut a_new, &mut g_new, input)
    } else {
        parse_term(&mut a_new, &mut g_new, input)
    };
    let old = reference::parse_term(&mut a_old, &mut g_old, input, ids);
    match (&new, &old) {
        (Ok(t), Ok(u)) => {
            assert!(t == u, "{input:?}: the readers built different trees");
            assert_eq!(arena_order(t), arena_order(u), "{input:?}: arena order");
            t.validate().unwrap();
            assert_eq!(g_new.peek(), g_old.peek(), "{input:?}: generator");
            assert_eq!(names(&a_new), names(&a_old), "{input:?}: alphabet");
            for with_ids in [false, true].into_iter().filter(|_| print) {
                let printed = if with_ids {
                    to_term_with_ids(t, &a_new)
                } else {
                    to_term(t, &a_new)
                };
                assert_eq!(printed, reference::to_term(u, &a_old, with_ids));
            }
            tally.same_ok += 1;
        }
        (Err(e), Err(f)) => check_term_errors(input, e, f, tally),
        _ => panic!("{input:?}: the one-pass reader gave {new:?}, the recursive one {old:?}"),
    }
}

/// Reads `input` as a script term with both readers and requires the
/// same outcome (and, if `print`, the same printed text).
fn check_script_term(input: &str, print: bool, tally: &mut Tally) {
    let (mut a_new, mut g_new) = (Alphabet::new(), NodeIdGen::starting_at(1_000));
    let (mut a_old, mut g_old) = (Alphabet::new(), NodeIdGen::starting_at(1_000));
    let new = parse_script_with_gen(&mut a_new, &mut g_new, input);
    let old = reference::parse_script(&mut a_old, &mut g_old, input);
    match (&new, &old) {
        (Ok(s), Ok(u)) => {
            assert!(s == u, "{input:?}: the readers built different scripts");
            assert_eq!(arena_order(s), arena_order(u), "{input:?}: arena order");
            assert_eq!(g_new.peek(), g_old.peek(), "{input:?}: generator");
            assert_eq!(names(&a_new), names(&a_old), "{input:?}: alphabet");
            if print {
                assert_eq!(
                    script_to_term(s, &a_new),
                    reference::script_to_term(u, &a_old)
                );
            }
            tally.same_ok += 1;
        }
        (Err(e), Err(f)) if e == f => tally.same_err += 1,
        (Err(EditError::Tree(e)), Err(EditError::Tree(f))) => check_term_errors(input, e, f, tally),
        (Err(EditError::Tree(e)), Err(EditError::Parse { at, msg })) => check_term_errors(
            input,
            e,
            &TreeError::Parse {
                at: *at,
                msg: msg.clone(),
            },
            tally,
        ),
        _ => panic!("{input:?}: the one-pass reader gave {new:?}, the recursive one {old:?}"),
    }
}

/// Reads `input` as XML with both readers and requires the same outcome
/// (and, if `print`, the same printed text).
fn check_xml(input: &str, print: bool, tally: &mut Tally) {
    let (mut a_new, mut g_new) = (Alphabet::new(), NodeIdGen::starting_at(5));
    let (mut a_old, mut g_old) = (Alphabet::new(), NodeIdGen::starting_at(5));
    let new = read_xml(&mut a_new, &mut g_new, input);
    let old = reference::read_xml(&mut a_old, &mut g_old, input);
    match (&new, &old) {
        (Ok(t), Ok(u)) => {
            assert!(t == u, "{input:?}: the readers built different trees");
            assert_eq!(arena_order(t), arena_order(u), "{input:?}: arena order");
            assert_eq!(g_new.peek(), g_old.peek(), "{input:?}: generator");
            assert_eq!(names(&a_new), names(&a_old), "{input:?}: alphabet");
            for pretty in [false, true].into_iter().filter(|_| print) {
                for with_ids in [false, true] {
                    let opts = WriteOptions { pretty, with_ids };
                    assert_eq!(
                        write_xml(t, &a_new, &opts),
                        reference::write_xml(u, &a_old, &opts)
                    );
                }
            }
            tally.same_ok += 1;
        }
        (Err(e), Err(f)) if e == f => tally.same_err += 1,
        (Err(XmlError::Parse { at: a, msg: m }), Err(XmlError::Parse { at: b, msg: n })) => {
            // A repeated `xvu:id` is met at the end of the start tag that
            // repeats it: the old reader met it after the end tag (same
            // message, later byte) or met a later fault first.
            let repeated = m
                .strip_prefix("duplicate identifier: duplicate node identifier n")
                .and_then(|id| id.parse().ok());
            assert!(
                repeated.is_some_and(|id| start_tag_names(input, *a, id)) && a <= b,
                "{input:?}: the one-pass reader gave {m:?} at {a}, the recursive one {n:?} at {b}"
            );
            if m == n {
                tally.dup_at_start_tag += 1;
            } else {
                tally.first_fault_first += 1;
            }
        }
        _ => panic!("{input:?}: the one-pass reader gave {new:?}, the recursive one {old:?}"),
    }
}

// ---------------------------------------------------------------------
// Single corruptions of a valid input.
// ---------------------------------------------------------------------

/// `input` with `at..at + len` replaced by `with`.
fn splice(input: &str, at: usize, len: usize, with: &str) -> String {
    format!("{}{with}{}", &input[..at], &input[at + len..])
}

/// Corruptions shared by both syntaxes: truncation at each byte, each
/// structural byte in `structural` dropped or doubled, extra whitespace
/// at each byte, and trailing junk.
fn byte_corruptions(input: &str, structural: &[u8], junk: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..input.len() {
        out.push(input[..i].to_owned());
        out.push(splice(input, i, 0, if i % 2 == 0 { " " } else { "\n\t " }));
        if structural.contains(&input.as_bytes()[i]) {
            out.push(splice(input, i, 1, ""));
            out.push(splice(input, i, 0, &input[i..=i]));
        }
    }
    out.extend(junk.iter().map(|j| format!("{input}{j}")));
    out
}

/// Single corruptions of a term (document or script): the byte-level
/// ones, a bad head, a bad or overflowing `#id`, and one repeated id.
fn term_corruptions(input: &str) -> Vec<String> {
    let b = input.as_bytes();
    let mut out = byte_corruptions(input, b"(),", &[" x", ")", ", a#0", "#", "(a)"]);
    let mut prev_id: Option<&str> = None;
    for i in 0..b.len() {
        let head_start = (b[i].is_ascii_alphabetic() || b[i] == b'_')
            && (i == 0 || matches!(b[i - 1], b'(' | b',' | b' ' | b':'));
        if head_start {
            // a head (or, in a script, a label) that starts with a digit
            out.push(splice(input, i, 0, "9"));
            if ["nop:", "ins:", "del:"]
                .iter()
                .any(|op| input[i..].starts_with(op))
            {
                out.push(splice(input, i, 3, "zap"));
                out.push(splice(input, i + 3, 1, ""));
            }
        }
        if b[i] == b'#' {
            let end = (i + 1..=b.len())
                .find(|&j| j == b.len() || !b[j].is_ascii_digit())
                .unwrap();
            let digits = &input[i + 1..end];
            out.push(splice(input, i + 1, digits.len(), "x"));
            out.push(splice(input, i + 1, digits.len(), ""));
            out.push(splice(input, i + 1, digits.len(), "18446744073709551616"));
            if let Some(p) = prev_id {
                out.push(splice(input, i + 1, digits.len(), p));
            }
            prev_id = Some(digits);
        }
    }
    out
}

/// Single corruptions of an XML document: the byte-level ones, a bad
/// element name, a bad or overflowing `xvu:id`, and one repeated id.
fn xml_corruptions(input: &str) -> Vec<String> {
    let mut out = byte_corruptions(input, b"<>/\"=", &["<r/>", "x", "<!--", " <?pi?> "]);
    for (i, _) in input.match_indices('<') {
        out.push(splice(input, i + 1, 0, "9"));
    }
    let mut prev_id: Option<&str> = None;
    for (i, m) in input.match_indices("xvu:id=\"") {
        let start = i + m.len();
        let len = input[start..].find('"').unwrap();
        let digits = &input[start..start + len];
        out.push(splice(input, start, len, "x"));
        out.push(splice(input, start, len, "-1"));
        out.push(splice(input, start, len, "18446744073709551616"));
        if let Some(p) = prev_id {
            out.push(splice(input, start, len, p));
        }
        prev_id = Some(digits);
    }
    out
}

fn check_doc_term_and_corruptions(input: &str, ids: bool, tally: &mut Tally) {
    check_doc_term(input, ids, true, tally);
    for bad in term_corruptions(input) {
        check_doc_term(&bad, ids, false, tally);
    }
}

fn check_script_and_corruptions(input: &str, tally: &mut Tally) {
    check_script_term(input, true, tally);
    for bad in term_corruptions(input) {
        check_script_term(&bad, false, tally);
    }
}

fn check_xml_and_corruptions(input: &str, tally: &mut Tally) {
    check_xml(input, true, tally);
    for bad in xml_corruptions(input) {
        check_xml(&bad, false, tally);
    }
}

// ---------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------

/// Strategy: a random plain term over labels {a..e}, at most 40 nodes
/// (every corruption below is read whole, so inputs stay small).
fn arb_term() -> impl Strategy<Value = String> {
    let leaf = prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(str::to_owned);
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            prop::sample::select(vec!["a", "b", "c", "d", "e"]),
            prop::collection::vec(inner, 1..4),
        )
            .prop_map(|(l, kids)| format!("{l}({})", kids.join(", ")))
    })
}

/// Writes `src` with scattered, distinct identifiers (`offset` plus a
/// permutation of the pre-order index) and, as a script, with an
/// operation per node drawn from `ops`.
fn pin(src: &str, offset: u64, ops: &[usize]) -> (String, String) {
    let mut alpha = Alphabet::new();
    let t = parse_term(&mut alpha, &mut NodeIdGen::new(), src).unwrap();
    let id = |n: NodeId| offset + n.0 * 17 % 41;
    let doc = reference::write_term(&t, &|out, n, &l| {
        out.push_str(&format!("{}#{}", alpha.name(l), id(n)));
    });
    let script = reference::write_term(&t, &|out, n, &l| {
        let op = ["nop", "ins", "del"][ops[n.0 as usize % ops.len()]];
        let gap = if n.0 % 3 == 0 { " " } else { "" };
        out.push_str(&format!("{op}:{gap}{}#{}", alpha.name(l), id(n)));
    });
    (doc, script)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated terms and scripts, and every single corruption of each,
    /// read alike.
    #[test]
    fn generated_inputs_read_as_the_recursive_readers_read_them(
        src in arb_term(),
        offset in 0u64..1_000,
        ops in prop::collection::vec(0usize..3, 1..8),
    ) {
        let mut tally = Tally::default();
        let (doc, script) = pin(&src, offset, &ops);
        check_doc_term_and_corruptions(&src, false, &mut tally);
        check_doc_term_and_corruptions(&doc, true, &mut tally);
        check_script_and_corruptions(&script, &mut tally);
        let mut alpha = Alphabet::new();
        let t = parse_term_with_ids(&mut alpha, &mut NodeIdGen::new(), &doc).unwrap();
        let xml = reference::write_xml(&t, &alpha, &WriteOptions { pretty: false, with_ids: true });
        check_xml_and_corruptions(&xml, &mut tally);
        prop_assert!(tally.same_ok > 0 && tally.same_err > 0);
    }
}

/// Every document and update of the enumerated corpus — as terms with
/// and without identifiers, as scripts and as XML — and every single
/// corruption of each read alike.
#[test]
fn corpus_inputs_read_as_the_recursive_readers_read_them() {
    let mut docs = BTreeSet::new();
    let mut plain = BTreeSet::new();
    let mut xml = BTreeSet::new();
    let mut scripts = BTreeSet::new();
    for inst in enumerate_instances(&EnumBudget::default()) {
        docs.insert(reference::to_term(&inst.doc, &inst.alpha, true));
        plain.insert(reference::to_term(&inst.doc, &inst.alpha, false));
        xml.insert(reference::write_xml(
            &inst.doc,
            &inst.alpha,
            &WriteOptions {
                pretty: true,
                with_ids: true,
            },
        ));
        scripts.insert(reference::script_to_term(&inst.update, &inst.alpha));
    }
    let mut tally = Tally::default();
    for d in &docs {
        check_doc_term_and_corruptions(d, true, &mut tally);
    }
    for p in &plain {
        check_doc_term_and_corruptions(p, false, &mut tally);
    }
    for s in &scripts {
        check_script_and_corruptions(s, &mut tally);
    }
    for x in &xml {
        check_xml_and_corruptions(x, &mut tally);
    }
    eprintln!("corpus reader equivalence: {tally:?}");
    assert!(
        tally.same_ok > 1_000 && tally.same_err > 10_000,
        "{tally:?}"
    );
    assert!(tally.dup_at_start_tag > 0, "{tally:?}");
}

/// With a repeated identifier and a second fault, the first fault in
/// reading order is reported.
#[test]
fn multi_fault_inputs_report_the_first_fault_in_reading_order() {
    let doc = |src: &str| {
        let new = parse_term_with_ids(&mut Alphabet::new(), &mut NodeIdGen::new(), src);
        let old = reference::parse_term(&mut Alphabet::new(), &mut NodeIdGen::new(), src, true);
        (new.unwrap_err(), old.unwrap_err())
    };
    // two repeated identifiers: 1 is repeated first
    assert_eq!(
        doc("r#1(a#2(b#1, c#3, d#3))"),
        (
            TreeError::DuplicateNodeId(NodeId(1)),
            TreeError::DuplicateNodeId(NodeId(3))
        )
    );
    // a repeated identifier, then a truncated child list
    let (new, old) = doc("r#0(a#1(b#0, c(");
    assert_eq!(new, TreeError::DuplicateNodeId(NodeId(0)));
    assert!(matches!(old, TreeError::Parse { at: 15, .. }), "{old:?}");
    // XML: the repeat is met at the end of `<a xvu:id="0">`
    let src = r#"<r xvu:id="0"><a xvu:id="0"><b/></a></r>"#;
    let new = read_xml(&mut Alphabet::new(), &mut NodeIdGen::new(), src).unwrap_err();
    let old = reference::read_xml(&mut Alphabet::new(), &mut NodeIdGen::new(), src).unwrap_err();
    assert!(matches!(new, XmlError::Parse { at: 28, .. }), "{new:?}");
    assert!(matches!(old, XmlError::Parse { at: 36, .. }), "{old:?}");
}
