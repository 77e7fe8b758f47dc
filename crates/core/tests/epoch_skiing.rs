//! The epoch publisher's Skiing rule as a schedule: its rebase points are
//! a pure function of the script (operation counts, never a clock), and
//! on a monotone drift its total charged cost obeys Lemma 3.2 against
//! every fixed-period schedule — recomputed here from first principles
//! ([`WaterMarks`], [`classify_cost`]), not read back from the publisher.

use hazy_core::{classify_cost, Entity, EpochPublisher, Skiing, WaterMarks, WatermarkPolicy};
use hazy_learn::LinearModel;
use hazy_linalg::NormPair;
use hazy_obs::EventKind;
use hazy_storage::sort_ops;
use hazy_testkit::{feature, grid_entities, splitmix64};

/// Drifts, inserts and removes from one seed, LSNs starting at `start_lsn`;
/// returns the publisher's rebase count and the LSN offsets of the
/// `EpochRebase` events it emitted.
fn run_script(start_lsn: u64) -> (u64, Vec<u64>) {
    let mut r = 0x5C1_u64;
    let mut w = [0.4f64, -0.3, 0.05];
    let mut publisher = EpochPublisher::new(
        grid_entities(128),
        LinearModel::from_parts(w.to_vec(), 0.0),
        NormPair::EUCLIDEAN,
        start_lsn,
    );
    let mut next_id = 127u64;
    for _ in 0..300 {
        match splitmix64(&mut r) % 10 {
            0 => {
                next_id += 1;
                publisher.apply_insert(Entity::new(next_id, feature(&mut r)));
            }
            1 => {
                publisher.apply_remove(splitmix64(&mut r) % (next_id + 1));
            }
            _ => {
                let k = (splitmix64(&mut r) % 3) as usize;
                w[k] += (splitmix64(&mut r) % 1000) as f64 / 1000.0 * 0.2 - 0.1;
                publisher.apply_update(&LinearModel::from_parts(w.to_vec(), 0.0));
            }
        }
    }
    // this run's LSN range is its own, whatever else the process published
    let lsns = hazy_obs::recent_events(8192)
        .iter()
        .filter(|ev| ev.kind == EventKind::EpochRebase)
        .filter(|ev| (start_lsn..=publisher.lsn()).contains(&ev.a))
        .map(|ev| ev.a - start_lsn)
        .collect();
    (publisher.rebases(), lsns)
}

#[test]
fn rebase_points_repeat_exactly_per_script() {
    let (rebases_a, lsns_a) = run_script(1 << 40);
    let (rebases_b, lsns_b) = run_script(2 << 40);
    assert!(rebases_a >= 5, "the script should rebase several times, did {rebases_a}");
    assert_eq!(rebases_a, rebases_b);
    assert_eq!(lsns_a.len() as u64, rebases_a, "one EpochRebase event per rebase");
    assert_eq!(lsns_a, lsns_b, "rebase LSNs differ between two runs of one script");
}

#[test]
fn skiing_total_cost_is_competitive_on_a_monotone_drift() {
    const ROUNDS: usize = 160;
    let entities = grid_entities(400);
    let pair = NormPair::EUCLIDEAN;
    // models[0] is the initial model; round i installs models[i]
    let models: Vec<LinearModel> = (0..=ROUNDS)
        .map(|i| {
            let t = i as f64 * 0.004;
            LinearModel::from_parts(vec![0.4 + t, -0.3 + 0.5 * t, 0.05 - 0.2 * t], 0.0)
        })
        .collect();

    // --- what the publisher did and charged ----------------------------------
    let mut publisher = EpochPublisher::new(entities.clone(), models[0].clone(), pair, 0);
    let s = publisher.skiing().reorg_cost();
    let mut rebased_at = Vec::new();
    let mut charged = 0.0;
    for (i, model) in models.iter().enumerate().skip(1) {
        let before: Skiing = publisher.skiing().clone();
        publisher.apply_update(model);
        let after = publisher.skiing();
        if after.reorgs() > before.reorgs() {
            rebased_at.push(i);
            charged += after.reorg_cost();
        } else {
            charged += after.accumulated() - before.accumulated();
        }
    }
    assert!(rebased_at.len() >= 3, "drift too small to exercise the rule: {rebased_at:?}");

    // --- the cost matrix, from first principles -------------------------------
    // cost(s, i): round i's band walk when the last re-score was at round s
    // — band tuples re-scored, plus flip patches the publish copies.
    let per_tuple = classify_cost(&entities[0].f) as f64;
    let n = entities.len();
    assert_eq!(s, n as f64 * per_tuple + sort_ops(n as u64) as f64, "S = Σ classify + n·log₂n");
    let m_norm = entities.iter().map(|e| e.f.norm(pair.q)).fold(0.0f64, f64::max);
    let labels: Vec<Vec<i8>> =
        models.iter().map(|m| entities.iter().map(|e| m.predict(&e.f)).collect()).collect();
    let c: Vec<Vec<f64>> = (0..ROUNDS)
        .map(|s| {
            let eps: Vec<f64> = entities.iter().map(|e| models[s].margin(&e.f)).collect();
            let mut marks =
                WaterMarks::new(models[s].clone(), pair, m_norm, WatermarkPolicy::Monotone);
            let rounds_after = models.iter().zip(&labels).skip(s + 1);
            rounds_after
                .map(|(model, now)| {
                    marks.observe(model);
                    let band = eps.iter().filter(|&&e| marks.low() < e && e < marks.high()).count();
                    let flips = now.iter().zip(&labels[s]).filter(|(a, b)| a != b).count();
                    band as f64 * per_tuple + flips as f64
                })
                .collect()
        })
        .collect();
    let cost = |s: usize, i: usize| c[s][i - s - 1];
    let total = |rebase: &dyn Fn(usize, usize) -> bool| -> f64 {
        let (mut last, mut sum) = (0, 0.0);
        for i in 1..=ROUNDS {
            if rebase(last, i) {
                sum += s;
                last = i;
            } else {
                sum += cost(last, i);
            }
        }
        sum
    };

    // the publisher charged exactly what its own schedule costs
    assert_eq!(charged, total(&|_, i| rebased_at.contains(&i)), "rebased at {rebased_at:?}");

    // Lemma 3.2: within 1 + σ + α of the best fixed-period schedule, where
    // σ·S bounds an incremental step (a walk over everything) and α = 1
    let best_fixed = (1..=ROUNDS).map(|p| total(&|last, i| i - last == p)).fold(f64::MAX, f64::min);
    let sigma = (n as f64 * (per_tuple + 1.0)) / s;
    let bound = Skiing::competitive_ratio(sigma, publisher.skiing().alpha()) * best_fixed;
    assert!(charged <= bound, "skiing {charged} > bound {bound} (best fixed {best_fixed})");
    let never = total(&|_, _| false);
    assert!(charged < never, "skiing {charged} must beat never rebasing ({never})");
}
