//! The legacy `{nodes: map, root}` JSON wire format, deterministic.
//!
//! This is the historical serde representation of a document tree —
//! `{"nodes": {"<id>": {"id": …, "label": …, "parent": …, "children":
//! […]}, …}, "root": <id>}` — hand-rolled, with no serde dependency.
//! Historically the node map was collected into a `HashMap`, so the
//! serialized bytes varied run-to-run with hash iteration order;
//! [`to_legacy_json`] emits entries **sorted by [`NodeId`]**, making the
//! bytes a pure function of the tree. [`from_legacy_json`] accepts both
//! orderings (any key order, arbitrary whitespace), so old payloads keep
//! loading.
//!
//! This codec is the "serde" baseline of the load-path benchmarks: it
//! re-parses text, re-hashes every identifier, and rebuilds the arena
//! node by node — exactly the per-node costs the flat
//! [`crate::snapshot`] format deletes.

use crate::alphabet::Sym;
use crate::node::{Node, NodeId};
use crate::tree::{DocTree, Tree};
use crate::TreeError;

/// Serializes `tree` in the legacy JSON wire shape with the node map
/// sorted by identifier: equal trees produce byte-identical output.
pub fn to_legacy_json(tree: &DocTree) -> String {
    let mut nodes: Vec<&Node<Sym>> = tree.slots().map(|s| tree.node_at(s)).collect();
    nodes.sort_unstable_by_key(|n| n.id);
    let mut out = String::with_capacity(nodes.len() * 48 + 32);
    out.push_str("{\"nodes\":{");
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&n.id.0.to_string());
        out.push_str("\":{\"id\":");
        out.push_str(&n.id.0.to_string());
        out.push_str(",\"label\":");
        out.push_str(&n.label.index().to_string());
        out.push_str(",\"parent\":");
        match n.parent {
            Some(p) => out.push_str(&p.0.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"children\":[");
        for (j, c) in n.children.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&c.0.to_string());
        }
        out.push_str("]}");
    }
    out.push_str("},\"root\":");
    out.push_str(&tree.root().0.to_string());
    out.push('}');
    out
}

/// Parses the legacy JSON wire shape back into a tree.
///
/// Accepts arbitrary whitespace and any key order inside objects (what
/// a generic JSON serializer may emit); the decoded tree is
/// [`Tree::validate`]d, so structurally broken payloads yield a typed
/// [`TreeError`].
pub fn from_legacy_json(src: &str) -> Result<DocTree, TreeError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.ws();
    p.expect(b'{')?;
    let mut nodes: Option<Vec<Node<Sym>>> = None;
    let mut root: Option<u64> = None;
    loop {
        p.ws();
        let key = p.string()?;
        p.ws();
        p.expect(b':')?;
        p.ws();
        match key.as_str() {
            "nodes" => nodes = Some(p.node_map()?),
            "root" => root = Some(p.u64()?),
            other => return Err(p.err(format!("unexpected key {other:?}"))),
        }
        p.ws();
        match p.next()? {
            b',' => continue,
            b'}' => break,
            c => return Err(p.err(format!("expected ',' or '}}', got {:?}", c as char))),
        }
    }
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input after document".into()));
    }
    let nodes = nodes.ok_or_else(|| p.err("missing \"nodes\"".into()))?;
    let root = root.ok_or_else(|| p.err("missing \"root\"".into()))?;
    let mut tree: DocTree = Tree::empty_with_root(NodeId(root));
    for node in nodes {
        tree.push_node(node);
    }
    // `validate` resolves the root unconditionally; check it exists first
    if !tree.contains(NodeId(root)) {
        return Err(TreeError::Inconsistent(format!(
            "root {root} is not among the nodes"
        )));
    }
    tree.validate()?;
    Ok(tree)
}

/// A minimal recursive-descent parser for exactly the legacy shape.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: String) -> TreeError {
        TreeError::Parse { at: self.pos, msg }
    }

    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn next(&mut self) -> Result<u8, TreeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), TreeError> {
        let got = self.next()?;
        if got != want {
            return Err(self.err(format!(
                "expected {:?}, got {:?}",
                want as char, got as char
            )));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, TreeError> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.next()? {
                b'"' => break,
                b'\\' => return Err(self.err("escapes are not used by this format".into())),
                _ => {}
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos - 1])
            .map(str::to_owned)
            .map_err(|_| self.err("invalid UTF-8 in string".into()))
    }

    fn u64(&mut self) -> Result<u64, TreeError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number".into()));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are UTF-8")
            .parse()
            .map_err(|e| self.err(format!("number out of range: {e}")))
    }

    /// `null` or a `u64`.
    fn opt_u64(&mut self) -> Result<Option<u64>, TreeError> {
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(None);
        }
        self.u64().map(Some)
    }

    fn u64_array(&mut self) -> Result<Vec<u64>, TreeError> {
        self.expect(b'[')?;
        self.ws();
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.ws();
            out.push(self.u64()?);
            self.ws();
            match self.next()? {
                b',' => continue,
                b']' => break,
                c => return Err(self.err(format!("expected ',' or ']', got {:?}", c as char))),
            }
        }
        Ok(out)
    }

    fn node(&mut self) -> Result<Node<Sym>, TreeError> {
        self.expect(b'{')?;
        let (mut id, mut label, mut children) = (None, None, None);
        let mut parent: Option<Option<u64>> = None;
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            match key.as_str() {
                "id" => id = Some(self.u64()?),
                "label" => label = Some(self.u64()?),
                "parent" => parent = Some(self.opt_u64()?),
                "children" => children = Some(self.u64_array()?),
                other => return Err(self.err(format!("unexpected node key {other:?}"))),
            }
            self.ws();
            match self.next()? {
                b',' => continue,
                b'}' => break,
                c => return Err(self.err(format!("expected ',' or '}}', got {:?}", c as char))),
            }
        }
        let id = id.ok_or_else(|| self.err("node missing \"id\"".into()))?;
        let label = label.ok_or_else(|| self.err("node missing \"label\"".into()))?;
        let label = usize::try_from(label)
            .ok()
            .and_then(Sym::try_from_index)
            .ok_or_else(|| self.err(format!("label index {label} out of symbol range")))?;
        let parent = parent.ok_or_else(|| self.err("node missing \"parent\"".into()))?;
        let children = children.ok_or_else(|| self.err("node missing \"children\"".into()))?;
        Ok(Node {
            id: NodeId(id),
            label,
            parent: parent.map(NodeId),
            children: children.into_iter().map(NodeId).collect(),
        })
    }

    fn node_map(&mut self) -> Result<Vec<Node<Sym>>, TreeError> {
        self.expect(b'{')?;
        self.ws();
        let mut out = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.ws();
            let key = self.string()?;
            let key: u64 = key
                .parse()
                .map_err(|_| self.err(format!("node map key {key:?} is not an identifier")))?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let node = self.node()?;
            if node.id.0 != key {
                return Err(self.err(format!(
                    "node map key {key} disagrees with node id {}",
                    node.id
                )));
            }
            out.push(node);
            self.ws();
            match self.next()? {
                b',' => continue,
                b'}' => break,
                c => return Err(self.err(format!("expected ',' or '}}', got {:?}", c as char))),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_term_with_ids, Alphabet, NodeIdGen};

    fn doc(src: &str) -> DocTree {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        parse_term_with_ids(&mut alpha, &mut gen, src).unwrap()
    }

    #[test]
    fn wire_bytes_are_pinned_and_sorted_by_id() {
        // r#0(a#2, b#1): arena order is 0,2,1 but the wire sorts by id —
        // the exact bytes are pinned so the format cannot drift
        let t = doc("r#0(a#2, b#1)");
        assert_eq!(
            to_legacy_json(&t),
            "{\"nodes\":{\
             \"0\":{\"id\":0,\"label\":0,\"parent\":null,\"children\":[2,1]},\
             \"1\":{\"id\":1,\"label\":2,\"parent\":0,\"children\":[]},\
             \"2\":{\"id\":2,\"label\":1,\"parent\":0,\"children\":[]}\
             },\"root\":0}"
        );
    }

    #[test]
    fn serialization_is_deterministic_across_arena_orders() {
        // same tree assembled in two different arena orders
        let a = doc("r#0(a#1(b#3), a#2)");
        let mut b = doc("r#0(a#1, a#2)");
        b.add_child_with_id(NodeId(1), NodeId(3), a.label(NodeId(3)))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(to_legacy_json(&a), to_legacy_json(&b));
    }

    #[test]
    fn round_trip_is_identifier_exact() {
        let t = doc("r#0(a#5(c#9, c#2), b#7)");
        let u = from_legacy_json(&to_legacy_json(&t)).unwrap();
        assert_eq!(t, u);
        u.validate().unwrap();
    }

    #[test]
    fn parser_accepts_whitespace_and_any_key_order() {
        let src = r#" { "root" : 0 , "nodes" : {
            "1" : { "children": [], "parent": 0, "id": 1, "label": 1 },
            "0" : { "id": 0, "label": 0, "parent": null, "children": [ 1 ] }
        } } "#;
        let t = from_legacy_json(src).unwrap();
        assert_eq!(t.size(), 2);
        assert_eq!(t.root(), NodeId(0));
        t.validate().unwrap();
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"nodes\":{},\"root\":0}",                  // empty tree
            "{\"nodes\":{\"0\":{\"id\":1,\"label\":0,\"parent\":null,\"children\":[]}},\"root\":0}", // key/id clash
            "{\"nodes\":{\"0\":{\"id\":0,\"label\":0,\"parent\":null,\"children\":[9]}},\"root\":0}", // dangling child
            "{\"nodes\":{\"0\":{\"id\":0,\"label\":0,\"parent\":null,\"children\":[]}},\"root\":0} x", // trailing
            "{\"nodes\":{\"0\":{\"id\":0,\"label\":99999999999,\"parent\":null,\"children\":[]}},\"root\":0}", // label range
        ] {
            assert!(from_legacy_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
