//! Checkpoint blobs, per architecture × mode, without a `DurableView` in
//! between: `save_state → restore_unsharded` is the identity on everything
//! observable, and no malformed blob — truncated anywhere, or carrying an
//! absurd entry count — makes the restorer panic.

use hazy_core::{Architecture, DurableClassifierView, Entity, Mode, ViewBuilder, ViewStats};
use hazy_datagen::{DatasetSpec, ExampleStream};
use hazy_learn::TrainingExample;
use hazy_linalg::FeatureVec;

type View = Box<dyn DurableClassifierView + Send>;

fn all_configs() -> impl Iterator<Item = (Architecture, Mode)> {
    Architecture::all()
        .into_iter()
        .flat_map(|a| [Mode::Eager, Mode::Lazy].map(|m| (a, m)))
}

fn blob_of(v: &View) -> Vec<u8> {
    let mut blob = Vec::new();
    v.save_state(&mut blob);
    blob
}

/// Restores `blob` onto a fresh clock advanced to `now_ns`, so absolute
/// virtual times stay comparable with the view the blob came from.
fn restore(builder: &ViewBuilder, blob: &[u8], now_ns: u64) -> Option<View> {
    let clock = builder.new_clock();
    clock.charge_ns(now_ns);
    let mut bytes = blob;
    let v = builder.restore_unsharded(&mut bytes, clock)?;
    bytes.is_empty().then_some(v)
}

/// One fixed operation mix over rounds `rounds`; returns every answer read.
fn drive(
    v: &mut View,
    n: u64,
    stream: &mut impl Iterator<Item = TrainingExample>,
    extra: &mut impl Iterator<Item = TrainingExample>,
    rounds: std::ops::Range<u64>,
) -> Vec<u64> {
    let mut answers = Vec::new();
    for round in rounds {
        if round % 5 == 4 {
            v.update_batch(&stream.take(3).collect::<Vec<_>>());
        } else {
            v.update(&stream.next().expect("enough examples"));
        }
        if round % 7 == 3 {
            for k in 0..4 {
                answers.push(
                    v.read_single((round * 31 + k * 17) % n)
                        .map_or(2, |l| l as u8 as u64),
                );
            }
        }
        if round % 11 == 5 {
            answers.push(v.count_positive());
        }
        if round % 13 == 6 {
            let mut ids = v.positive_ids();
            ids.sort_unstable();
            answers.extend(ids);
        }
        if round % 17 == 8 {
            answers.extend(v.top_k(5).into_iter().flat_map(|(id, m)| [id, m.to_bits()]));
        }
        if round % 9 == 2 {
            v.insert_entity(Entity::new(
                1_000_000 + round,
                extra.next().expect("enough entities").f,
            ));
        }
        if round % 14 == 9 {
            answers.push(u64::from(v.remove_entity((round * 13) % n)));
            answers.push(u64::from(v.remove_entity(1_000_000 + round - 7)));
        }
        if round % 40 == 25 {
            v.reorganize();
        }
    }
    answers
}

fn observe(v: &View) -> (u64, ViewStats, u64, Vec<u8>) {
    (v.clock().now_ns(), v.stats(), v.entity_count(), blob_of(v))
}

#[test]
fn round_trip_is_the_identity_and_the_restored_view_continues_in_lockstep() {
    let spec = DatasetSpec::dblife().scaled(0.004);
    let ds = spec.generate();
    let entities: Vec<Entity> = ds
        .entities
        .iter()
        .map(|e| Entity::new(e.id, e.f.clone()))
        .collect();
    let n = entities.len() as u64;
    let warm = ExampleStream::new(&spec, 99).take_vec(200);
    let examples = ExampleStream::new(&spec, 7).take_vec(600);
    let extras = ExampleStream::new(&spec, 21).take_vec(60);
    for (arch, mode) in all_configs() {
        let builder = ViewBuilder::new(arch, mode)
            .norm_pair(spec.norm_pair())
            .dim(spec.dim);
        let mut original = builder.build_with_clock(entities.clone(), &warm, builder.new_clock());
        let (mut stream, mut extra) = (examples.iter().cloned(), extras.iter().cloned());
        drive(&mut original, n, &mut stream, &mut extra, 0..150);

        // mid-script: save → restore → save is byte-identical
        let blob = blob_of(&original);
        let mut restored = restore(&builder, &blob, original.clock().now_ns())
            .unwrap_or_else(|| panic!("{arch:?}/{mode:?}: a fresh blob must restore"));
        assert_eq!(
            blob_of(&restored),
            blob,
            "{arch:?}/{mode:?}: re-saved blob differs"
        );
        assert_eq!(restored.describe(), original.describe());

        // the rest of the script runs identically on both
        let (mut stream2, mut extra2) = (stream.clone(), extra.clone());
        let a = drive(&mut original, n, &mut stream, &mut extra, 150..300);
        let b = drive(&mut restored, n, &mut stream2, &mut extra2, 150..300);
        assert_eq!(a, b, "{arch:?}/{mode:?}: answers diverge after restore");
        assert_eq!(
            observe(&original),
            observe(&restored),
            "{arch:?}/{mode:?}: state diverges after restore"
        );
    }
}

/// A population small enough that *every* strict prefix of its blob can be
/// tried (the on-disk blobs carry whole page images).
fn tiny_view(arch: Architecture, mode: Mode, n: u64) -> (ViewBuilder, View) {
    let builder = ViewBuilder::new(arch, mode).dim(3);
    let f = |k: u64| {
        FeatureVec::dense(vec![
            (k % 5) as f32 / 5.0 - 0.4,
            (k % 3) as f32 / 3.0 - 0.3,
            0.1,
        ])
    };
    let entities = (0..n).map(|k| Entity::new(k, f(k))).collect();
    let mut v = builder.build_with_clock(entities, &[], builder.new_clock());
    for k in 0..20u64 {
        v.update(&TrainingExample::new(
            0,
            f(k * 7 + 1),
            if k % 3 == 0 { -1 } else { 1 },
        ));
    }
    v.insert_entity(Entity::new(500, f(11)));
    v.count_positive();
    (builder, v)
}

#[test]
fn every_strict_prefix_is_rejected_without_panicking() {
    for (arch, mode) in all_configs() {
        let (builder, v) = tiny_view(arch, mode, 12);
        let blob = blob_of(&v);
        assert!(
            restore(&builder, &blob, 0).is_some(),
            "{arch:?}/{mode:?}: the whole blob restores"
        );
        for len in 0..blob.len() {
            assert!(
                restore(&builder, &blob[..len], 0).is_none(),
                "{arch:?}/{mode:?}: a {len}-byte prefix of a {}-byte blob restored",
                blob.len()
            );
        }
    }
}

/// ROADMAP: "every byte that arrives from outside … structured error or
/// round-trip, never panic". A count field is such a byte: it must be
/// bounded by what the blob can hold before anything is allocated for it.
#[test]
fn an_absurd_entry_count_is_rejected_not_allocated() {
    // over a view with no entities the blob ends in its count field(s): one
    // for the in-memory stores' tuple vector, two for the hybrid's ε-map
    // and buffer
    let count_fields = [
        (Architecture::NaiveMem, 1),
        (Architecture::HazyMem, 1),
        (Architecture::Hybrid, 2),
    ];
    for (arch, fields) in count_fields {
        for mode in [Mode::Eager, Mode::Lazy] {
            let builder = ViewBuilder::new(arch, mode).dim(3);
            let v = builder.build_with_clock(Vec::new(), &[], builder.new_clock());
            let blob = blob_of(&v);
            assert!(restore(&builder, &blob, 0).is_some());
            for field in 0..fields {
                let at = blob.len() - 8 * (field + 1);
                assert_eq!(
                    blob[at..at + 8],
                    [0u8; 8],
                    "{arch:?}: expected an empty count at {at}"
                );
                let mut bad = blob.clone();
                bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                assert!(
                    restore(&builder, &bad, 0).is_none(),
                    "{arch:?}/{mode:?}: count field {field} = u64::MAX restored"
                );
            }
        }
    }
}
