//! The kit's own guarantees — what the suites built on it take for granted.

use hazy_core::{Architecture, Entity, Mode};
use hazy_learn::TrainingExample;
use hazy_linalg::FeatureVec;
use hazy_testkit::{
    apply, assert_answers_match, assert_models_bit_identical, boundaries, build_plain, builder,
    check_minimized, durable_run, literal, minimize, script, Mix, Op, PrefixOracle, Shape,
};

/// Every op kind, a pinned op, removals and resurrections.
fn shape() -> Shape {
    Shape {
        mix: Mix { update: 40, insert: 10, remove: 8, read: 15, count: 8, members: 7, top_k: 8 },
        ops: 200,
        pinned: vec![(50, Op::Reorg)],
        ..Shape::CRASH_520
    }
}

#[test]
fn script_is_deterministic_per_seed_and_differs_across_seeds() {
    let shape = shape();
    let text = |seed| format!("{:?}", script(seed, &shape));
    assert_eq!(text(7), text(7), "same seed, same script");
    assert_ne!(text(7), text(8), "different seeds draw different scripts");
    let (ops, ever) = script(7, &shape);
    assert_eq!(ops.len(), shape.ops);
    assert!(matches!(ops[50], Op::Reorg), "pinned op sits at its position");
    assert!(ops.iter().any(|op| matches!(op, Op::Remove(_))), "mix exercises removals");
    assert_eq!(ever[..shape.population], (0..shape.population as u64).collect::<Vec<_>>()[..]);
    assert!(ever.len() > shape.population, "fresh ids are reported");
}

#[test]
fn prefix_oracle_equals_a_fresh_replay_of_the_prefix() {
    let shape = shape();
    let (ops, ever) = script(3, &shape);
    let b = builder(Architecture::HazyMem, Mode::Lazy);
    let build = || build_plain(&b, 1, shape.base_entities());
    let mut oracle = PrefixOracle::new(&ops, build());
    for n in [0, 1, 17, 17, 90, ops.len()] {
        oracle.advance_to(n);
        assert_eq!(oracle.applied(), n);
        let mut fresh = build();
        for op in &ops[..n] {
            apply(fresh.as_mut(), op);
        }
        let ctx = format!("prefix {n}");
        assert_eq!(oracle.view.stats(), fresh.stats(), "{ctx}: stats");
        assert_models_bit_identical(oracle.view.model(), fresh.model(), &ctx);
        // on copies, so the probe's reads do not perturb the next round
        let mut probed = PrefixOracle::new(&ops, build());
        probed.advance_to(n);
        assert_answers_match(probed.view.as_mut(), fresh.as_mut(), &ever, 6, &ctx);
    }
}

#[test]
fn unfaulted_run_has_one_durable_record_per_boundary() {
    let shape = shape();
    let (ops, _) = script(5, &shape);
    let b = builder(Architecture::NaiveMem, Mode::Eager);
    let images = durable_run(build_plain(&b, 3, shape.base_entities()), 16, &ops);
    assert_eq!(images.len(), ops.len() + 1);
    let mut seen = 0;
    for (boundary, _, durable_ops) in boundaries(&images) {
        assert_eq!(boundary, seen);
        assert_eq!(durable_ops, boundary, "boundary {boundary}");
        seen += 1;
    }
    assert_eq!(seen, images.len());
}

/// A synthetic bug — "fails iff a `Remove` follows an `Update`" — hidden in
/// a crash-suite-sized script must come back as exactly those two ops, the
/// `Update` shrunk to one example.
#[test]
fn minimize_keeps_only_the_ops_that_matter() {
    let (ops, _) = script(11, &Shape { ops: 520, ..shape() });
    let fails = |ops: &[Op]| {
        let update = ops.iter().position(|op| matches!(op, Op::Update(_)));
        update.is_some_and(|at| ops[at..].iter().any(|op| matches!(op, Op::Remove(_))))
    };
    let minimal = minimize(&ops, fails);
    assert!(
        matches!(&minimal[..], [Op::Update(batch), Op::Remove(_)] if batch.len() == 1),
        "not minimal:\n{}",
        literal(&minimal)
    );

    // the same through a panicking check: the test dies on the minimal
    // script's own assertion, and a passing script is left alone
    let check = |ops: &[Op]| {
        let depth = ops.iter().filter_map(|op| if let Op::TopK(k) = op { Some(*k) } else { None }).max();
        assert!(depth < Some(2), "{} ops, TopK({depth:?})", ops.len());
    };
    let died = std::panic::catch_unwind(|| check_minimized(&ops, check)).expect_err("check fails");
    assert_eq!(died.downcast_ref::<String>().expect("assert message"), "1 ops, TopK(Some(2))");
    check_minimized(&[Op::TopK(1), Op::Count], check);
}

/// The printed form is the script: a pasted literal prints as itself.
#[test]
fn literal_is_a_replayable_expression() {
    let pasted = vec![
        Op::Update(vec![TrainingExample::new(0, FeatureVec::dense(vec![-0.5, 0.2509804, 1.0]), -1), TrainingExample::new(0, FeatureVec::sparse(9, vec![(2, 0.5), (7, -1.5)]), 1)]),
        Op::Insert(Entity::new(10000, FeatureVec::dense(vec![0.1, -0.2, 1.0]))),
        Op::Remove(3),
        Op::Read(10000),
        Op::Count,
        Op::Members,
        Op::TopK(4),
        Op::Reorg,
        Op::SetArch(Architecture::HazyDisk, Mode::Lazy),
    ];
    let text = "vec![
    Op::Update(vec![TrainingExample::new(0, FeatureVec::dense(vec![-0.5, 0.2509804, 1.0]), -1), TrainingExample::new(0, FeatureVec::sparse(9, vec![(2, 0.5), (7, -1.5)]), 1)]),
    Op::Insert(Entity::new(10000, FeatureVec::dense(vec![0.1, -0.2, 1.0]))),
    Op::Remove(3),
    Op::Read(10000),
    Op::Count,
    Op::Members,
    Op::TopK(4),
    Op::Reorg,
    Op::SetArch(Architecture::HazyDisk, Mode::Lazy),
]";
    assert_eq!(literal(&pasted), text);
}
