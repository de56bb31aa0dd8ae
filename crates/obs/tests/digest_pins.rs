//! The fleet digest pinned bit for bit.
//!
//! One fixed registry history — counters, gauges and traced histograms,
//! some of them first touched mid-run — is sampled 130 times at
//! one-second ticks, and the digest after every prefix (0 to 130 samples)
//! must hash to the value pinned below. The pins were generated by the
//! earlier series that stored per-tick deltas and re-summed them, so any
//! drift in rates, gauges, quantiles, exemplars or the window length
//! between the two designs fails here.

use netsolve_obs::{MetricsRegistry, StatsDigest, WindowedSeries};

/// xorshift64: a fixed, dependency-free stream for the registry history.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Tick `i` of the history.
fn drive(reg: &MetricsRegistry, rng: &mut Rng, i: u64) {
    if i == 0 {
        reg.counter("srv.idle").add(0);
    }
    reg.counter("srv.requests").add(rng.next() % 50);
    reg.counter("srv.bytes").add(rng.next() % 100_000);
    if i >= 60 {
        reg.counter("a.late").add(rng.next() % 3);
    }
    reg.gauge("srv.depth").set((rng.next() % 21) as i64 - 10);
    if i >= 70 {
        reg.gauge("b.late_depth").set((rng.next() % 5) as i64);
    }
    let solve = reg.histogram("srv.solve_secs");
    if !(90..100).contains(&i) {
        for _ in 0..(rng.next() % 6) {
            let secs = 1e-6 * 2f64.powf((rng.next() % 2400) as f64 / 100.0);
            let untraced = rng.next().is_multiple_of(4);
            let trace = if untraced { 0 } else { (rng.next() as u128) << 64 | 1 };
            solve.record_secs_traced(secs, trace);
        }
    }
    if i.is_multiple_of(7) {
        reg.histogram("srv.wait_secs")
            .record_secs_traced(1e-4 * (1 + i % 5) as f64, 0x77 + i as u128);
    }
    if i >= 50 && i.is_multiple_of(3) {
        reg.histogram("z.late_secs").record_secs(0.02 * (1 + i % 4) as f64);
    }
}

/// Every field of a digest, floats by their bits.
fn render(d: &StatsDigest) -> String {
    let mut s = format!(
        "{}|{}|{:x}|{:x}|",
        d.origin,
        d.component,
        d.age_secs.to_bits(),
        d.window_secs.to_bits()
    );
    for (n, v) in &d.counters {
        s += &format!("c {n}={:x};", v.to_bits());
    }
    for (n, v) in &d.gauges {
        s += &format!("g {n}={v};");
    }
    for q in &d.quantiles {
        s += &format!(
            "q {} {} {:x} {:x} {:x} {:x};",
            q.name,
            q.count,
            q.p50_secs.to_bits(),
            q.p95_secs.to_bits(),
            q.p99_secs.to_bits(),
            q.p99_exemplar
        );
    }
    s
}

/// FNV-1a 64.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Hash of the digest after 0, 1, …, 130 samples.
const PINS: [u64; 131] = [
    0xccfd77c76bfce28f, 0xccfd77c76bfce28f, 0xe4635f68bd1c987d, 0xb73c131685630fbd,
    0x5bd173d920b95f99, 0x7354be160e5bf6b0, 0xf2fee4188b4f5ead, 0x197b84b248673e6f,
    0x262f3e7e7cb6546d, 0x6e7a0a53be08ca32, 0x31701ed5407d8d25, 0xf9459a7e4ad9cd4d,
    0x296c43bf37d603c7, 0xf4a5dd90ac6217ac, 0x447285800021cbfe, 0x83c5db43d060470a,
    0x9d41e65b8e84c1b0, 0xd847fec67e9b2c24, 0xa2a667c4b9e644e6, 0x69ecc7e987296ac0,
    0x10026cf8a411e9fa, 0x8c8c280056863da4, 0x13851c14b8f919a1, 0x0c675701bb2121aa,
    0x35a26b25eefb744c, 0x890a0b8a92040777, 0xdf62261df6042534, 0xf1b5048972e954b4,
    0x272615867ca3cff1, 0x635d50169c2ab63a, 0x35a9100cca7e2a70, 0x16357048f9aeb929,
    0x52d22e75e33358ae, 0x5da2c81c02ffa1a8, 0x79227040deddfb98, 0xac426c957cfbec9a,
    0x947aea2ac679cb62, 0xffb0e39109f34d10, 0xfc67b6c808040554, 0x576a2c92f1cbe618,
    0x86654d3ecf3ba5d0, 0xf2db91c8b13ecd83, 0x3a99ab453d2a106f, 0xed68e7311ba918ef,
    0x6e090194dd374011, 0x58cc6b94676f0e31, 0x4f185c2881ae4a42, 0xa5bc6448e8513a9c,
    0x873f4e8a60a7966e, 0xef3fd39ca728450c, 0xc0433c8982e36bbc, 0xbc0969f964ef8eac,
    0x1e6464a53f3b7d42, 0x003e7d851957a12c, 0x602e39355fc1b2bf, 0x8eb4a38c0481cc9d,
    0x308b5276c9e64fdc, 0x3ca1a7f8469038e9, 0x4f0e85c9be1dbbc9, 0x37e4684b81c875fd,
    0xf59a80fd5f443b9c, 0x5b99ad2bd016c22e, 0x06fcd781668a2d26, 0xc7821cfc6b122cfc,
    0x503cc0f72024df08, 0x12890fa5fca8cb4c, 0xc176383441890869, 0x5fdb0875290bbc7d,
    0x79ee919c76a32cab, 0x3676eb7da93f51a7, 0x893616ecfb977314, 0x9c6af65cec971f47,
    0xdc23ecdc56e97ab0, 0xe8fb802ca8b7168c, 0x8ff863e1fb27fbe9, 0xc937135582b5ffd8,
    0x0c0f9e6f98a2adf8, 0xe258c9a44a2762ba, 0xabb9fa34dd860883, 0x906fa2d7727c7cc4,
    0xe1c8e0a566c39143, 0x7b949870aa8563d9, 0x5261e55540f0bfa4, 0xbd89d33747b21118,
    0x68a0b11a43dc469b, 0x8c8f6a2674a53cec, 0xb3e3c2f34ffc12b1, 0x3eff193ce25880e4,
    0x7dab43440d578819, 0xe116ce020132fbc3, 0x4e1c4b24afeb0417, 0xc74f94e4889727ab,
    0x5dfc8608d9188201, 0xa4647925e21929a5, 0xf0e90bd76b848854, 0x0ce85cd768e95059,
    0x644d503f2e26e5e8, 0x459939732ce21b27, 0x75a9ee05a2fa5fa2, 0xb0afe670321e2a9d,
    0x92f1b6f627a80d0e, 0xbbda181c3ecab753, 0x7287777e311f9c2a, 0x4b3e550099a3b3dd,
    0x73c9e44121f3be8d, 0x531cfd03427359f7, 0x66b248fe37ade7ab, 0x38ae911c68e50654,
    0xf87cb13a4e5220a9, 0x3e8ca8869fc771ef, 0x30ecb514f7c21e20, 0x4f1b08b4b0775a28,
    0x3ccf87360acffc0e, 0xaeb4927dac2a19ca, 0xd85c763b7e6e6ef2, 0xe2f7e6cc1d3bf69c,
    0x466c672cb8fa7cc2, 0x5eb7f373a9f8bca6, 0x9e99c7d79ff2c132, 0xdfc244c9b2d242f2,
    0xbfb13261fc31701b, 0x4c4dca13ae85c221, 0xa5b8ea993bdbc3bd, 0x7371838e9a9f92a8,
    0xdf7d10840aad49f7, 0x9f0762120c033f37, 0x274a931d9e4303db, 0xc64f962bc93a65e3,
    0x7d982bfb92f37a2d, 0x38abf4b520e8b3b4, 0x527c5b39bc6bfe07,
];

#[test]
fn digest_after_every_prefix_matches_the_pins() {
    let reg = MetricsRegistry::new();
    let series = WindowedSeries::default();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut digests = vec![series.digest("srv0", "server")];
    for i in 0..130u64 {
        drive(&reg, &mut rng, i);
        series.record(reg.snapshot("server"), 1000.0 + i as f64);
        digests.push(series.digest("srv0", "server"));
    }
    for (prefix, (digest, pin)) in digests.iter().zip(PINS).enumerate() {
        assert_eq!(fnv(&render(digest)), pin, "after {prefix} samples: {digest:?}");
    }
    // The last digest in readable form: the full two-minute window.
    let last = digests.last().unwrap();
    assert_eq!(last.window_secs, 120.0);
    assert_eq!(last.gauge("b.late_depth"), 2);
    let names: Vec<&str> = last.quantiles.iter().map(|q| q.name.as_str()).collect();
    assert_eq!(names, ["srv.solve_secs", "srv.wait_secs", "z.late_secs"]);
    assert_eq!(last.quantiles("srv.wait_secs").unwrap().p99_exemplar, 0xee);
}
