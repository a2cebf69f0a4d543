//! Serialising document trees as XML.

use std::fmt::Write as _;

use xvu_tree::{Alphabet, DocTree, NodeId};

/// Serialisation options.
#[derive(Clone, Debug)]
pub struct WriteOptions {
    /// Pretty-print with two-space indentation.
    pub pretty: bool,
    /// Emit `xvu:id` attributes carrying node identifiers (round-trips
    /// identifiers through XML; off by default for plain interchange).
    pub with_ids: bool,
}

impl Default for WriteOptions {
    fn default() -> WriteOptions {
        WriteOptions {
            pretty: true,
            with_ids: false,
        }
    }
}

/// Writes a tree as an XML document (element-only; see the crate docs for
/// the data-model note).
///
/// Walks on an explicit stack, so a deep tree costs heap, not native
/// stack.
pub fn write_xml(tree: &DocTree, alpha: &Alphabet, opts: &WriteOptions) -> String {
    let mut out = String::new();
    let newline = |out: &mut String| {
        if opts.pretty {
            out.push('\n');
        }
    };
    let indent = |out: &mut String, depth: usize| {
        if opts.pretty {
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
    };
    // Each frame is an element whose end tag is still to come: its name,
    // its children and the index of the next child to write.
    let mut open: Vec<(&str, &[NodeId], usize)> = Vec::new();
    let mut next = Some(tree.root());
    loop {
        if let Some(n) = next.take() {
            indent(&mut out, open.len());
            let name = alpha.name(tree.label(n));
            let children = tree.children(n);
            out.push('<');
            out.push_str(name);
            if opts.with_ids {
                write!(out, " xvu:id=\"{}\"", n.0).expect("writing to a String cannot fail");
            }
            if children.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                open.push((name, children, 0));
            }
            newline(&mut out);
        }
        let Some((name, children, i)) = open.last_mut() else {
            return out;
        };
        if let Some(&c) = children.get(*i) {
            *i += 1;
            next = Some(c);
        } else {
            let name = *name;
            open.pop();
            indent(&mut out, open.len());
            out.push_str("</");
            out.push_str(name);
            out.push('>');
            newline(&mut out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvu_tree::{parse_term_with_ids, Alphabet, NodeIdGen};

    #[test]
    fn writes_nested_elements() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, d#2(c#3))").unwrap();
        let xml = write_xml(&t, &alpha, &WriteOptions::default());
        assert_eq!(xml, "<r>\n  <a/>\n  <d>\n    <c/>\n  </d>\n</r>\n");
    }

    #[test]
    fn compact_mode() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1)").unwrap();
        let xml = write_xml(
            &t,
            &alpha,
            &WriteOptions {
                pretty: false,
                with_ids: false,
            },
        );
        assert_eq!(xml, "<r><a/></r>");
    }

    #[test]
    fn id_attributes() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term_with_ids(&mut alpha, &mut gen, "r#5(a#9)").unwrap();
        let xml = write_xml(
            &t,
            &alpha,
            &WriteOptions {
                pretty: false,
                with_ids: true,
            },
        );
        assert_eq!(xml, "<r xvu:id=\"5\"><a xvu:id=\"9\"/></r>");
    }
}
