//! Tests of the benchmark's own machinery: request streams, answer checks,
//! span arithmetic and the percentile guard.

use hc_core::ecs::Etc;
use hc_core::standard::{standard_form, TmaOptions};
use hc_perfbench::check::{
    check_homogeneity, check_tma, mph_tdh, oracle_standard_form, oracle_tma, Answer,
};
use hc_perfbench::stats::{guarded, keep_windows, nearest_rank, windowed, MIN_BEYOND};
use hc_perfbench::trace::{self_times, Span};
use hc_perfbench::workload::{request_id, Inputs, Kind, Stream, SESSIONS};

const KINDS: [Kind; 2] = [Kind::PaperSmall, Kind::SessionEdits];

/// The first `n` requests of every stream and connection, as bytes.
fn stream_bytes(kind: Kind, seed: u64, n: u64) -> Vec<u8> {
    let inputs = Inputs::new(kind, seed);
    let ids: Vec<String> = (0..SESSIONS).map(|s| format!("{s:016x}")).collect();
    let mut out = Vec::new();
    for stream in [Stream::Warm, Stream::Closed, Stream::Open] {
        for conn in 0..2 {
            for i in 0..n {
                let desc = inputs.draw(stream, conn, 2, i);
                out.extend(inputs.request_bytes(&desc, &request_id(stream, conn, i), &ids));
            }
        }
    }
    out
}

#[test]
fn same_seed_gives_identical_stream_and_another_seed_differs() {
    for kind in KINDS {
        let a = stream_bytes(kind, 7, 40);
        assert_eq!(a, stream_bytes(kind, 7, 40), "{kind:?} is not reproducible");
        assert_ne!(a, stream_bytes(kind, 8, 40), "{kind:?} ignores its seed");
    }
}

/// The answer the server gives for `etc`, computed by the library.
fn library_answer(etc: &hc_linalg::Matrix) -> Answer {
    let r = hc_core::characterize(&Etc::new(etc.clone()).unwrap().to_ecs()).unwrap();
    Answer {
        mph: r.mph,
        tdh: r.tdh,
        tma: r.tma,
        version: None,
    }
}

#[test]
fn answer_check_accepts_the_library_and_rejects_a_perturbed_tma() {
    for kind in KINDS {
        let inputs = Inputs::new(kind, 3);
        // A CVB base, past the SPEC sets of paper-small.
        let etc = &inputs.bases[inputs.bases.len() - 1].etc;
        let good = library_answer(etc);
        let (mph, tdh) = mph_tdh(etc, None);
        check_homogeneity(&good, mph, tdh).unwrap();
        let oracle = oracle_tma(etc).unwrap();
        check_tma(&good, oracle).unwrap();
        let bad = Answer {
            tma: good.tma * (1.0 + 1e-6),
            ..good
        };
        assert!(
            check_tma(&bad, oracle).is_err(),
            "{kind:?}: perturbed TMA accepted"
        );
        let bad = Answer {
            mph: good.mph * (1.0 + 1e-6),
            ..good
        };
        assert!(check_homogeneity(&bad, mph, tdh).is_err());
    }
}

#[test]
fn oracle_standard_form_matches_the_library() {
    for kind in KINDS {
        let inputs = Inputs::new(kind, 5);
        for base in &inputs.bases {
            let ours = oracle_standard_form(&base.etc).unwrap();
            let ecs = Etc::new(base.etc.clone()).unwrap().to_ecs();
            let lib = standard_form(&ecs, &TmaOptions::default()).unwrap().matrix;
            // The library stops at a 1e-8 marginal tolerance.
            assert!(
                ours.max_abs_diff(&lib) < 1e-7,
                "{kind:?}: standard forms differ by {}",
                ours.max_abs_diff(&lib)
            );
        }
    }
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        parent,
        request: "r".into(),
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span("root", None, 0, 100),
        span("a", Some(0), 10, 40),
        span("b", Some(0), 30, 60), // overlaps a: the union is 10..60
        span("a.inner", Some(1), 15, 20),
        span("late", Some(0), 90, 130), // runs past its parent: clipped to 90..100
    ];
    assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 5, 30, 5, 40]);
}

#[test]
fn guard_refuses_an_under_sampled_p99() {
    let sample: Vec<f64> = (0..1000).map(f64::from).collect();
    let p = guarded(&sample, 99.0, MIN_BEYOND).unwrap();
    assert_eq!((p.value, p.n, p.beyond), (989.0, 1000, 10));
    assert!(guarded(&sample[..999], 99.0, MIN_BEYOND).is_err());
    assert!(windowed(&sample[..999], 99.0, 15).is_err());
    // Three windows of 1000 fit; the median of their p99s is the middle one.
    let long: Vec<f64> = (0..3000).map(f64::from).collect();
    let w = windowed(&long, 99.0, 15).unwrap();
    assert_eq!((w.windows, w.value), (3, 1989.0));
    assert_eq!(nearest_rank(&sample, 50.0).value, 499.0);
}

#[test]
fn windows_that_passed_are_kept_and_topped_up_by_least_steal() {
    let steal = [0.01, 0.09, 0.02, 0.30, 0.06, 0.07];
    let passed = [true, false, true, false, false, true];
    // Enough passed: exactly those are kept.
    assert_eq!(keep_windows(&passed, &steal, 3), passed.to_vec());
    // Too few passed: they stay, and the least-stolen others fill up.
    assert_eq!(
        keep_windows(&passed, &steal, 5),
        vec![true, true, true, false, true, true]
    );
    // A failed window ranks after every passed one, whatever its steal:
    // window 1 (9%) stays, and only the least stolen failed one joins it.
    let passed = [false, true, false, false, true, true];
    assert_eq!(
        keep_windows(&passed, &steal, 4),
        vec![true, true, false, false, true, true]
    );
}
