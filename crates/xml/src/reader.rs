//! Parsing XML documents into document trees.
//!
//! A deliberately small, strict parser for the element-only fragment of
//! XML the paper's data model covers: elements, self-closing tags, the
//! `xvu:id` identifier attribute written by the writer, comments, and an
//! optional XML declaration. Text content that is not whitespace, CDATA,
//! and entities are **rejected** (the formal model has no text nodes);
//! other attributes are ignored.
//!
//! Like the term reader ([`xvu_tree::read_term`]), it appends each
//! element to one arena when its start tag ends — so the arena is in
//! document order — writes each child list once, when its element closes
//! ([`xvu_tree::PreorderBuilder`]), and keeps a stack of the open
//! elements instead of recursing: depth costs heap, not native stack. A
//! repeated `xvu:id` is reported at the end of the start tag that repeats
//! it.

use crate::error::XmlError;
use xvu_tree::{Alphabet, DocTree, NodeId, NodeIdGen, PreorderBuilder, Sym};

/// Parses an XML document into a tree. Elements with `xvu:id` attributes
/// keep those identifiers; others get fresh ones from `gen`.
pub fn read_xml(
    alpha: &mut Alphabet,
    gen: &mut NodeIdGen,
    input: &str,
) -> Result<DocTree, XmlError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_misc()?;
    let root = p.start_tag(alpha, gen)?;
    // Every element opens with a '<' and takes at least four bytes
    // (`<a/>`): room for that many nodes, so reading grows no array.
    let tags = input.bytes().filter(|&b| b == b'<').count();
    let mut tree = PreorderBuilder::with_capacity(root.id, root.label, tags.min(input.len() / 4));
    // the elements whose end tag is still to come, innermost last
    let mut open: Vec<StartTag<'_>> = Vec::new();
    if !root.empty {
        open.push(root);
    }
    while let Some(parent) = open.last() {
        p.skip_misc()?;
        match (p.peek(), p.peek_at(1)) {
            (Some(b'<'), Some(b'/')) => {
                p.pos += 2;
                let close = p.name()?;
                if close != parent.name {
                    return Err(p.err(&format!(
                        "mismatched closing tag </{close}> for <{}>",
                        parent.name
                    )));
                }
                p.skip_ws();
                if p.peek() != Some(b'>') {
                    return Err(p.err("expected '>' in closing tag"));
                }
                p.pos += 1;
                open.pop();
            }
            (Some(b'<'), _) => {
                let parent = parent.id;
                let child = p.start_tag(alpha, gen)?;
                tree.child(parent, child.id, child.label)
                    .map_err(|e| p.err(&format!("duplicate identifier: {e}")))?;
                if !child.empty {
                    open.push(child);
                }
            }
            (Some(_), _) => {
                return Err(p.err("text content is not supported (element-only data model)"))
            }
            (None, _) => return Err(p.err("unexpected end of input in element")),
        }
    }
    p.skip_misc()?;
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after the root element"));
    }
    Ok(tree.finish())
}

/// One element's start tag, read.
struct StartTag<'a> {
    name: &'a str,
    label: Sym,
    id: NodeId,
    /// Self-closing (`<a/>`): the element has no children and no end tag.
    empty: bool,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Reads a start tag `<name attr="v" …>` or `<name …/>`, drawing the
    /// element's identifier from its `xvu:id` or from `gen`.
    fn start_tag(
        &mut self,
        alpha: &mut Alphabet,
        gen: &mut NodeIdGen,
    ) -> Result<StartTag<'a>, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.name()?;
        let label = alpha.intern(name);

        // attributes (only xvu:id is interpreted)
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
                        if raw > NodeId::MAX.0 {
                            return Err(self.err("xvu:id out of range"));
                        }
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
            None if gen.remaining() == 0 => return Err(self.err("node identifier space exhausted")),
            None => gen.fresh(),
        };
        let empty = self.peek() == Some(b'/');
        if empty {
            self.pos += 1;
            if self.peek() != Some(b'>') {
                return Err(self.err("expected '>' after '/'"));
            }
        }
        self.pos += 1; // '>'
        Ok(StartTag {
            name,
            label,
            id,
            empty,
        })
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
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
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii"))
    }

    fn quoted(&mut self) -> Result<&'a str, XmlError> {
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
        let v =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("checked utf8 via input &str");
        self.pos += 1;
        Ok(v)
    }

    /// Skips whitespace, comments, processing instructions, and the XML
    /// declaration. Rejects non-whitespace text.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with(b"<!--") {
                match find(self.bytes, self.pos + 4, b"-->") {
                    Some(end) => self.pos = end + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else if self.starts_with(b"<?") {
                match find(self.bytes, self.pos + 2, b"?>") {
                    Some(end) => self.pos = end + 2,
                    None => return Err(self.err("unterminated processing instruction")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn starts_with(&self, prefix: &[u8]) -> bool {
        self.bytes[self.pos..].starts_with(prefix)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_xml, WriteOptions};
    use xvu_tree::{parse_term_with_ids, to_term};

    #[test]
    fn parses_nested_document() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = read_xml(
            &mut alpha,
            &mut gen,
            "<?xml version=\"1.0\"?>\n<!-- doc -->\n<r>\n  <a/>\n  <d><c/></d>\n</r>",
        )
        .unwrap();
        assert_eq!(to_term(&t, &alpha), "r(a, d(c))");
    }

    #[test]
    fn round_trip_with_ids() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term_with_ids(&mut alpha, &mut gen, "r#3(a#5, d#7(c#11))").unwrap();
        let xml = write_xml(
            &t,
            &alpha,
            &WriteOptions {
                pretty: true,
                with_ids: true,
            },
        );
        let mut gen2 = NodeIdGen::new();
        let back = read_xml(&mut alpha, &mut gen2, &xml).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn round_trip_without_ids_is_isomorphic() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, a#2, d#3(c#4))").unwrap();
        let xml = write_xml(&t, &alpha, &WriteOptions::default());
        let back = read_xml(&mut alpha, &mut gen, &xml).unwrap();
        assert!(back.isomorphic(&t));
    }

    #[test]
    fn unknown_attributes_are_ignored() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = read_xml(&mut alpha, &mut gen, "<r class='x' id=\"9\"><a/></r>").unwrap();
        assert_eq!(t.size(), 2);
    }

    #[test]
    fn text_content_is_rejected() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let err = read_xml(&mut alpha, &mut gen, "<r>hello</r>").unwrap_err();
        assert!(matches!(err, XmlError::Parse { .. }));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        for bad in [
            "",
            "<r>",
            "<r></s>",
            "<r><a/></r><r/>",
            "<r attr></r>",
            "<r attr=x></r>",
            "<1bad/>",
            "<r><!-- unterminated </r>",
        ] {
            assert!(read_xml(&mut alpha, &mut gen, bad).is_err(), "{bad:?}");
        }
    }
}
