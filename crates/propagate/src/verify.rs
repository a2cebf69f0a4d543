//! Verification of candidate propagations.
//!
//! A script `S'` is a valid answer to an instance iff
//!
//! 1. it is a well-formed editing script with `In(S') = t`;
//! 2. **schema compliant** — `Out(S') ∈ L(D)`;
//! 3. **side-effect free** — `A(Out(S')) = Out(S)` (identifier-sensitive).
//!
//! The propagation algorithm produces scripts satisfying these by
//! construction (Theorem 3); this module re-checks them from first
//! principles, which the test-suite leans on heavily.

use crate::error::PropagateError;
use crate::instance::Instance;
use xvu_edit::{check_script, output_tree, EditOp, Script};
use xvu_view::extract_view;

/// Checks that `candidate` is a schema-compliant, side-effect-free
/// propagation of the instance's update.
pub fn verify_propagation(inst: &Instance<'_>, candidate: &Script) -> Result<(), PropagateError> {
    let check = check_script(candidate, Some(inst.source));
    check.closure()?;
    if candidate.label(candidate.root()).op == EditOp::Ins {
        return Err(PropagateError::NotAPropagation(
            "empty input tree".to_owned(),
        ));
    }
    if !check.input_matches() {
        return Err(PropagateError::NotAPropagation(
            "In(S') differs from the source document".to_owned(),
        ));
    }

    let out = output_tree(candidate)
        .ok_or_else(|| PropagateError::NotAPropagation("empty output tree".to_owned()))?;
    inst.dtd
        .validate(&out)
        .map_err(|e| PropagateError::NotAPropagation(format!("not schema compliant: {e}")))?;

    let out_view = extract_view(inst.ann, &out);
    let updated_view = output_tree(inst.update).expect("a validated update keeps its root");
    if out_view != updated_view {
        return Err(PropagateError::NotAPropagation(
            "side effect: A(Out(S')) differs from Out(S)".to_owned(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::instance::Instance;
    use xvu_edit::parse_script;

    #[test]
    fn fig7_propagation_verifies() {
        // The paper's Figure 7 script, transcribed literally.
        let mut fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let s_prime = parse_script(
            &mut fx.alpha,
            "nop:r#0(del:a#1, del:b#2, del:d#3(del:a#7, del:c#8), nop:a#4, nop:c#5, \
             ins:d#11(ins:a#16, ins:c#13, ins:b#17, ins:c#14), ins:a#12, ins:b#18, \
             nop:d#6(nop:b#9, nop:c#10, ins:a#19, ins:c#15))",
        )
        .unwrap();
        verify_propagation(&inst, &s_prime).unwrap();
        assert_eq!(xvu_edit::cost(&s_prime), 14);
    }

    #[test]
    fn wrong_input_is_rejected() {
        let mut fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let s_prime = parse_script(&mut fx.alpha, "nop:r#0(nop:a#1)").unwrap();
        assert!(matches!(
            verify_propagation(&inst, &s_prime),
            Err(PropagateError::NotAPropagation(_))
        ));
    }

    #[test]
    fn schema_violation_is_rejected() {
        // Keep everything but delete only a1 — output r(b,d,…) violates D0.
        let mut fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let s_prime = parse_script(
            &mut fx.alpha,
            "nop:r#0(del:a#1, nop:b#2, del:d#3(del:a#7, del:c#8), nop:a#4, nop:c#5, \
             ins:d#11(ins:a#16, ins:c#13, ins:b#17, ins:c#14), ins:a#12, ins:b#18, \
             nop:d#6(nop:b#9, nop:c#10, ins:a#19, ins:c#15))",
        )
        .unwrap();
        let err = verify_propagation(&inst, &s_prime).unwrap_err();
        assert!(matches!(err, PropagateError::NotAPropagation(m) if m.contains("schema")));
    }

    #[test]
    fn side_effect_is_rejected() {
        // Schema-compliant output whose view differs from Out(S):
        // keep a1 and its (b,d) group instead of deleting it.
        let mut fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let s_prime = parse_script(
            &mut fx.alpha,
            "nop:r#0(nop:a#1, nop:b#2, nop:d#3(nop:a#7, nop:c#8), nop:a#4, nop:c#5, \
             ins:d#11(ins:a#16, ins:c#13, ins:b#17, ins:c#14), ins:a#12, ins:b#18, \
             nop:d#6(nop:b#9, nop:c#10, ins:a#19, ins:c#15))",
        )
        .unwrap();
        let err = verify_propagation(&inst, &s_prime).unwrap_err();
        assert!(matches!(err, PropagateError::NotAPropagation(m) if m.contains("side effect")));
    }
}
