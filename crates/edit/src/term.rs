//! Term syntax for editing scripts.
//!
//! Scripts are written as terms whose heads carry the operation:
//!
//! ```text
//! nop:r#0(del:a#1, ins:d#11(ins:c#13))
//! ```
//!
//! The `#id` part is optional (fresh identifiers are allocated), but paper
//! fixtures always pin identifiers. The printer emits the same syntax.
//!
//! This module only defines the head, `op:label#id` (whitespace may
//! follow the `:`); the term structure around it is read and written by
//! the document codec, [`xvu_tree::read_term`] and [`xvu_tree::write_term`],
//! so scripts and documents share one reader, one writer and one
//! grammar. Reading never recurses, and a repeated identifier is reported
//! where its second occurrence is read.

use crate::error::EditError;
use crate::op::{ELabel, EditOp};
use crate::script::Script;
use xvu_tree::{read_term, write_term, Alphabet, NodeIdGen, TreeError};

/// Parses the script term syntax, interning labels into `alpha`.
/// Identifiers not given explicitly are allocated from an internal
/// generator starting beyond the largest explicit identifier — for
/// reproducible fixtures, pin all identifiers.
pub fn parse_script(alpha: &mut Alphabet, input: &str) -> Result<Script, EditError> {
    let mut gen = NodeIdGen::starting_at(1_000_000);
    parse_script_with_gen(alpha, &mut gen, input)
}

/// Like [`parse_script`] but drawing fresh identifiers from `gen`.
pub fn parse_script_with_gen(
    alpha: &mut Alphabet,
    gen: &mut NodeIdGen,
    input: &str,
) -> Result<Script, EditError> {
    read_term(input, gen, "script", |cur| {
        let op = match cur.label("expected an identifier")? {
            "ins" => EditOp::Ins,
            "del" => EditOp::Del,
            "nop" => EditOp::Nop,
            other => return Err(cur.error(format!("unknown operation {other:?}"))),
        };
        if !cur.eat(b':') {
            return Err(cur.error("expected ':' after operation"));
        }
        cur.skip_ws();
        let label = alpha.intern(cur.label("expected an identifier")?);
        Ok((ELabel { op, label }, cur.id("identifier out of range")?))
    })
    .map_err(|e| match e {
        TreeError::Parse { at, msg } => EditError::Parse { at, msg },
        e => EditError::Tree(e),
    })
}

/// Renders a script in the term syntax with identifiers.
pub fn script_to_term(s: &Script, alpha: &Alphabet) -> String {
    write_term(s, |out, id, l| {
        out.push_str(l.op.name());
        out.push(':');
        out.push_str(alpha.name(l.label));
        out.push('#');
        out.push_str(&id.0.to_string());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvu_tree::NodeId;

    #[test]
    fn parse_and_print_round_trip() {
        let mut alpha = Alphabet::new();
        let src = "nop:r#0(del:a#1, ins:d#11(ins:c#13, ins:c#14), nop:d#6(nop:c#10))";
        let s = parse_script(&mut alpha, src).unwrap();
        assert_eq!(script_to_term(&s, &alpha), src);
    }

    #[test]
    fn ops_are_parsed() {
        let mut alpha = Alphabet::new();
        let s = parse_script(&mut alpha, "nop:r#0(ins:a#1, del:b#2)").unwrap();
        assert_eq!(s.label(NodeId(0)).op, EditOp::Nop);
        assert_eq!(s.label(NodeId(1)).op, EditOp::Ins);
        assert_eq!(s.label(NodeId(2)).op, EditOp::Del);
    }

    #[test]
    fn missing_ids_get_fresh_ones() {
        let mut alpha = Alphabet::new();
        let s = parse_script(&mut alpha, "nop:r(ins:a, del:b#5)").unwrap();
        assert!(s.contains(NodeId(5)));
        assert_eq!(s.size(), 3);
    }

    #[test]
    fn an_insert_after_the_last_identifier_is_a_parse_error() {
        let mut alpha = Alphabet::new();
        let err = parse_script(&mut alpha, "nop:r#0(nop:a#18446744073709551614, ins:a)")
            .expect_err("no identifier is left for the inserted a");
        assert!(
            matches!(&err, EditError::Parse { msg, .. } if msg.contains("exhausted")),
            "{err:?}"
        );
    }

    #[test]
    fn parse_errors() {
        let mut alpha = Alphabet::new();
        for bad in [
            "",
            "zap:r#0",
            "nop r#0",
            "nop:r#0(",
            "nop:r#0(ins:a#1",
            "nop:r#0(ins:a#1,)",
            "nop:#0",
        ] {
            assert!(parse_script(&mut alpha, bad).is_err(), "{bad:?}");
        }
    }
}
