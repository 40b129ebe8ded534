//! Correctness checks on the program's answers. Each returns `Err` with
//! what it saw, so a run can count the operation as failed and say why.
//! Floating-point answers are compared by bit pattern: every path the
//! benchmark checks promises bit-identity, so one ulp is a wrong answer.

use hsconas_evo::{dominates, tradeoff_score, ParetoEval};
use hsconas_space::{Arch, SearchSpace};

/// The Eq. 1 trade-off coefficient every served score uses.
pub const BETA: f64 = -20.0;

/// `got` and `want` have the same bit pattern.
pub fn same_f64(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: got {got:e}, expected {want:e}"))
    }
}

/// Two logit vectors are equal element for element, bit for bit.
pub fn same_logits(what: &str, got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} logits, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: logit {i} is {:e}, expected {:e}",
            got[i], want[i]
        )),
    }
}

/// Two protocol lines are byte-identical.
pub fn same_line(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!("{what}: lines differ at byte {at}"))
}

/// A served score equals Eq. 1 recomputed from its own accuracy and
/// latency.
pub fn eq1_score(score: f64, accuracy: f64, latency_ms: f64, target_ms: f64) -> Result<(), String> {
    same_f64(
        "score vs Eq. 1",
        score,
        tradeoff_score(accuracy, latency_ms, target_ms, BETA),
    )
}

/// No returned Pareto point dominates another.
pub fn non_dominated(points: &[ParetoEval]) -> Result<(), String> {
    for (i, a) in points.iter().enumerate() {
        for (j, b) in points.iter().enumerate() {
            if i != j && dominates(a, b) {
                return Err(format!("pareto point {i} dominates point {j}"));
            }
        }
    }
    Ok(())
}

/// The search winner lies in the shrunk space, and that space fixes
/// exactly the configured layers (`configured` sorted).
pub fn winner_in_shrunk_space(
    shrunk: &SearchSpace,
    configured: &[usize],
    winner: &Arch,
) -> Result<(), String> {
    let mut fixed = shrunk.fixed_layers();
    fixed.sort_unstable();
    if fixed != configured {
        return Err(format!(
            "shrunk space fixes layers {fixed:?}, configured {configured:?}"
        ));
    }
    if !shrunk.contains(winner) {
        return Err(format!("winner {winner} lies outside the shrunk space"));
    }
    Ok(())
}

/// How far a span tree may stray from the wall time measured around it:
/// 1% plus 5 ms. That covers the clock reads at the tree's edges and a
/// descheduled thread on a busy host; work done outside the tree (a gap
/// the spans do not cover) of more than that is a failure.
const TREE_SLACK: (f64, f64) = (0.01, 0.005);

/// One traced tree's per-layer parts plus its unattributed remainder add
/// up to the wall time measured around it apart from the tracer.
pub fn parts_add_up(parts_s: f64, unattributed_s: f64, wall_s: f64) -> Result<(), String> {
    let sum = parts_s + unattributed_s;
    if (sum - wall_s).abs() <= TREE_SLACK.0 * wall_s + TREE_SLACK.1 {
        Ok(())
    } else {
        Err(format!(
            "per-layer parts {parts_s} s + unattributed {unattributed_s} s = {sum} s, but the measured wall is {wall_s} s"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_space::NetworkSkeleton;

    #[test]
    fn a_flipped_logit_bit_is_rejected() {
        let want = [0.5f32, -1.25, 3.0];
        assert!(same_logits("x", &want, &want).is_ok());
        let mut got = want;
        got[1] = f32::from_bits(got[1].to_bits() ^ 1);
        assert!(same_logits("x", &got, &want).is_err());
        assert!(same_logits("x", &want[..2], &want).is_err());
    }

    #[test]
    fn a_latency_off_by_one_ulp_is_rejected() {
        let want = 19.734_f64;
        assert!(same_f64("lat", want, want).is_ok());
        let up = f64::from_bits(want.to_bits() + 1);
        assert!(same_f64("lat", up, want).is_err());
        // Eq. 1 recomputation uses the same bit-exact comparison.
        let score = tradeoff_score(71.5, want, 20.0, BETA);
        assert!(eq1_score(score, 71.5, want, 20.0).is_ok());
        let score_up = f64::from_bits(score.to_bits() + 1);
        assert!(eq1_score(score_up, 71.5, want, 20.0).is_err());
    }

    #[test]
    fn a_dominated_pareto_point_is_rejected() {
        let p = |accuracy: f64, lat: &[f64]| ParetoEval {
            accuracy,
            latencies_ms: lat.to_vec(),
        };
        let front = vec![p(70.0, &[10.0, 20.0]), p(72.0, &[12.0, 25.0])];
        assert!(non_dominated(&front).is_ok());
        let mut bad = front.clone();
        bad.push(p(69.0, &[12.0, 25.0]));
        assert!(non_dominated(&bad).is_err());
    }

    #[test]
    fn a_reply_line_one_byte_off_is_rejected() {
        let line = r#"{"v":1,"id":"c0-3","code":200,"result":{"latency_ms":12.5}}"#;
        assert!(same_line("repeat", line, line).is_ok());
        let off = line.replacen("12.5", "12.6", 1);
        let err = same_line("repeat", &off, line).unwrap_err();
        assert!(err.contains("byte"), "{err}");
        assert!(same_line("repeat", &line[..line.len() - 1], line).is_err());
    }

    #[test]
    fn a_winner_outside_the_shrunk_space_is_rejected() {
        let space = SearchSpace::full(NetworkSkeleton::tiny(4));
        let inside = Arch::widest(space.num_layers());
        let op = inside.genes()[3].op;
        let shrunk = space.restrict_op(3, op).expect("restrict layer 3");
        assert!(winner_in_shrunk_space(&shrunk, &[3], &inside).is_ok());
        // A winner whose layer-3 operator is not the one kept.
        let mut genes = inside.genes().to_vec();
        genes[3].op = *space
            .allowed_ops(3)
            .iter()
            .find(|&&o| o != op)
            .expect("layer 3 offers several operators");
        let outside = Arch::new(genes);
        assert!(winner_in_shrunk_space(&shrunk, &[3], &outside).is_err());
        // The space must fix exactly the configured layers.
        assert!(winner_in_shrunk_space(&shrunk, &[2, 3], &inside).is_err());
    }

    #[test]
    fn a_gap_outside_the_spans_is_rejected() {
        use crate::trace::{tree_sums, Span};
        let span = |name: &str, start_ms: u64, end_ms: u64, parent| Span {
            name: name.into(),
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            parent,
        };
        // A 2 s tree: one layer call of 1.5 s, 0.5 s of the root's own time.
        let spans = vec![span("root", 0, 2000, None), span("layer", 100, 1600, Some(0))];
        let (parts, unattributed) = tree_sums(&spans)[0];
        assert!(parts_add_up(parts, unattributed, 2.0).is_ok());
        assert!(parts_add_up(parts, unattributed, 2.02).is_ok());
        // The measured call took 2.2 s: 0.2 s of work ran outside the tree.
        let err = parts_add_up(parts, unattributed, 2.2).unwrap_err();
        assert!(err.contains("measured wall"), "{err}");
        // A tree longer than the call around it is as wrong.
        assert!(parts_add_up(parts, unattributed, 1.8).is_err());
    }
}
