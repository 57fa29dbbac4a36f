//! Golden bits of the lognormal draws behind every delay in the results.
//!
//! `bobw_event::rng::lognormal` turns two uniforms from the vendored,
//! bit-exact `rand` into a Box-Muller normal with the platform's `ln`,
//! `cos` and `exp`. It runs once per queued BGP export and once per
//! TTL-violating DNS client, so every `results/*.json` depends bit for bit
//! on how the host's libm rounds those three calls. This test pins the
//! draws for a fixed `SmallRng` under the two BGP processing-delay
//! parameterisations and the DNS overshoot: if it fails while the seed
//! and the vendored `rand` are unchanged, the platform libm differs from
//! the one the committed results were made with.

use bobw_bgp::BgpTimingConfig;
use bobw_dns::{OVERSHOOT_MEDIAN_S, OVERSHOOT_SIGMA};
use bobw_event::rng::lognormal;
use bobw_event::RngFactory;

/// `(what, median, sigma, expected to_bits() of the first draws)`.
fn cases() -> [(&'static str, f64, f64, [u64; 4]); 3] {
    let bgp = BgpTimingConfig::default();
    [
        (
            "BGP announcement processing delay",
            bgp.announce_proc_median_s,
            bgp.announce_proc_sigma,
            [
                0x400402d198c83472,
                0x3ff95cd1c500ba6b,
                0x3ff35f9084f8a4a8,
                0x3ffb15cfca45d3df,
            ],
        ),
        (
            "BGP withdrawal processing delay",
            bgp.withdraw_proc_median_s,
            bgp.withdraw_proc_sigma,
            [
                0x400b83e03213481d,
                0x40016fd03770802a,
                0x3ffaa366b6d5e268,
                0x40029efedb1001a9,
            ],
        ),
        (
            "DNS TTL-violation overshoot",
            OVERSHOOT_MEDIAN_S,
            OVERSHOOT_SIGMA,
            [
                0x409d48e690b6515c,
                0x408b6248dadd9c59,
                0x40817a958e0f15be,
                0x408e8daeb457c6fe,
            ],
        ),
    ]
}

#[test]
fn lognormal_draws_are_bit_identical_to_the_committed_results_host() {
    for (what, median, sigma, expected) in cases() {
        let mut rng = RngFactory::new(42).stream("libm-golden", 0);
        let got: Vec<u64> = (0..expected.len())
            .map(|_| lognormal(&mut rng, median, sigma).to_bits())
            .collect();
        assert_eq!(
            got, expected,
            "{what} (median {median}, sigma {sigma}): lognormal draws changed bits. \
             The uniforms come from the vendored bit-exact rand, so the likely \
             cause is the platform libm (ln / cos / exp rounding differently); \
             results/*.json reproduce byte for byte only on a matching libm \
             (see DESIGN.md, Determinism)"
        );
    }
}
