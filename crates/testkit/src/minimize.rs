//! Failures that explain themselves: a failing script is delta-debugged
//! down to the few ops that matter and printed as a literal a test can
//! paste (the vendored proptest cannot shrink). Ops can be dropped freely:
//! any sub-sequence of a script is a script — a `Read` or `Remove` of an
//! absent id is a no-op and an `Insert` of a live id replaces it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hazy_linalg::FeatureVec;

use crate::script::Op;

/// Shrinks `ops` to a locally minimal script that still `fails` (the
/// caller's own deployment and oracle): drop op ranges by halving down to
/// single ops, then shrink inside the ops that are left (`Update` batches,
/// `TopK` depths). Prints the result as a replayable [`literal`].
///
/// # Panics
/// When `ops` itself does not fail — there is nothing to minimize.
pub fn minimize(ops: &[Op], mut fails: impl FnMut(&[Op]) -> bool) -> Vec<Op> {
    assert!(fails(ops), "minimize needs a failing script");
    let mut ops = ops.to_vec();
    // adopts `candidate` if it still fails
    let mut adopt = |ops: &mut Vec<Op>, candidate: Vec<Op>| {
        let failed = fails(&candidate);
        if failed {
            *ops = candidate;
        }
        failed
    };

    let mut chunk = ops.len().div_ceil(2).max(1);
    loop {
        let (mut dropped, mut at) = (false, 0);
        while at < ops.len() {
            let end = (at + chunk).min(ops.len());
            let without = [&ops[..at], &ops[end..]].concat();
            if adopt(&mut ops, without) {
                dropped = true;
            } else {
                at = end;
            }
        }
        if chunk > 1 {
            chunk = chunk.div_ceil(2);
        } else if !dropped {
            break;
        }
    }

    for i in 0..ops.len() {
        // candidates are re-derived after every adoption, until none fails
        while smaller(&ops[i]).into_iter().any(|op| {
            let mut with = ops.clone();
            with[i] = op;
            adopt(&mut ops, with)
        }) {}
    }

    eprintln!("minimal failing script ({} ops):\n{}", ops.len(), literal(&ops));
    ops
}

/// Strictly smaller forms of one op: an `Update` without one of its
/// examples, a `TopK` at a shallower depth.
fn smaller(op: &Op) -> Vec<Op> {
    match op {
        Op::Update(batch) if batch.len() > 1 => (0..batch.len())
            .map(|skip| Op::Update([&batch[..skip], &batch[skip + 1..]].concat()))
            .collect(),
        Op::TopK(k) if *k > 1 => vec![Op::TopK(1), Op::TopK(k / 2), Op::TopK(k - 1)],
        _ => Vec::new(),
    }
}

/// Runs `check` (a suite's deployment and assertions, panicking on a
/// diff) over `ops`. On a failure the script is [`minimize`]d under the
/// same `check`, which then runs once more, uncaught, on the shortest
/// failing script — the test dies on that script's first diverging answer.
///
/// `check` must assert only what holds for *every* sub-script: a coverage
/// floor ("every fault fired", "each reader finished a cycle") fails on
/// any short script, and the minimizer would slide into it.
pub fn check_minimized(ops: &[Op], check: impl Fn(&[Op])) {
    let fails = |ops: &[Op]| catch_unwind(AssertUnwindSafe(|| check(ops))).is_err();
    if fails(ops) {
        check(&minimize(ops, fails));
        unreachable!("a minimized script still fails");
    }
}

/// `ops` as a Rust expression that evaluates to the same script — paste
/// it into a test to replay a minimized failure.
pub fn literal(ops: &[Op]) -> String {
    let fvec = |f: &FeatureVec| match f {
        FeatureVec::Dense(c) => format!("FeatureVec::dense(vec!{c:?})"),
        FeatureVec::Sparse { dim, idx, val } => {
            let pairs: Vec<_> = idx.iter().zip(val.iter()).collect();
            format!("FeatureVec::sparse({dim}, vec!{pairs:?})")
        }
    };
    let lines: Vec<String> = ops
        .iter()
        .map(|op| match op {
            Op::Update(batch) => {
                let examples: Vec<String> = batch
                    .iter()
                    .map(|ex| format!("TrainingExample::new({}, {}, {})", ex.id, fvec(&ex.f), ex.y))
                    .collect();
                format!("Update(vec![{}])", examples.join(", "))
            }
            Op::Insert(e) => format!("Insert(Entity::new({}, {}))", e.id, fvec(&e.f)),
            Op::SetArch(arch, mode) => format!("SetArch(Architecture::{arch:?}, Mode::{mode:?})"),
            // the remaining variants' `Debug` form is already their literal
            op => format!("{op:?}"),
        })
        .map(|op| format!("    Op::{op},\n"))
        .collect();
    format!("vec![\n{}]", lines.concat())
}
