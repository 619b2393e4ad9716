//! Seeded request generators. Every input a workload sends is a pure
//! function of `(seed, request index)`, so a run can be replayed (the
//! trace run does exactly that) and every sampled response can be
//! re-derived and checked after the timed window.
//!
//! Bodies are written with `write!` into reused buffers: the client side
//! of the measurement must not share code (`serde_json`, `proto`,
//! `loadgen`) with the server it measures.

use lam_ml::rng::Xoshiro256;
use std::io::Write;

/// Model every workload serves: the paper's FMM space (2112
/// configurations), where the analytical model is weakest and the hybrid
/// matters most.
pub const WORKLOAD: &str = "fmm";
/// Model kind every workload serves.
pub const KIND: &str = "hybrid";

/// Rows of one off-grid (`miss-b256`) request.
pub const MISS_ROWS: usize = 256;
/// Rows of one gateway (`gateway-b64`) request.
pub const GATEWAY_ROWS: usize = 64;
/// Distinct request bodies the gateway stream cycles through.
pub const GATEWAY_POOL: usize = 256;
/// `/tune` budget: 3% of the 2112-configuration space, the paper's
/// train-on-3% protocol.
pub const TUNE_BUDGET: usize = 64;

/// Off-grid axes: `t` and `k` stay on the grid, `N` and `q` leave it
/// (the paper's "workload change": problem sizes the model never saw).
const T_VALUES: u64 = 16; // t = 1..=16
const N_LO: u64 = 1024;
const N_VALUES: u64 = 65536 - 1024 + 1;
const Q_LO: u64 = 16;
const Q_VALUES: u64 = 512 - 16 + 1;
const K_VALUES: u64 = 11; // k = 2..=12

/// Size of the off-grid row space: every `(t, N, q, k)` combination.
pub const MISS_SPACE: u64 = T_VALUES * N_VALUES * Q_VALUES * K_VALUES;

/// Salts that keep the streams of one seed independent of each other.
const HOT_SALT: u64 = 0x686f_7462;
const BG_SALT: u64 = 0x6267_7072;
const MISS_SALT: u64 = 0x6d69_7373;
const GATEWAY_SALT: u64 = 0x6777_6179;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A seeded visiting order over a finite index space.
pub struct Order(Vec<usize>);

impl Order {
    /// Seeded permutation of `0..n`.
    pub fn new(n: usize, seed: u64, salt: u64) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        Xoshiro256::seeded(seed ^ salt).shuffle(&mut order);
        Self(order)
    }

    /// Grid index of request `i` (the order cycles).
    pub fn at(&self, i: u64) -> usize {
        self.0[(i % self.0.len() as u64) as usize]
    }
}

/// Hot-row order: which grid row 1-row request `i` carries.
pub fn hot_order(grid_len: usize, seed: u64) -> Order {
    Order::new(grid_len, seed, HOT_SALT)
}

/// Background-predict order of `tune-mix` (independent of the hot one).
pub fn bg_order(grid_len: usize, seed: u64) -> Order {
    Order::new(grid_len, seed, BG_SALT)
}

/// The off-grid row stream: row `g` of the run is the image of `g` under
/// a seeded affine bijection of `0..MISS_SPACE`, so no row repeats until
/// `MISS_SPACE` (≈ 5.6e9) rows have been sent — no run comes close.
pub struct MissRows {
    mul: u64,
    add: u64,
}

impl MissRows {
    /// The seed's bijection.
    pub fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256::seeded(seed ^ MISS_SALT);
        let mut mul = (rng.next_u64() % MISS_SPACE) | 1;
        while gcd(mul, MISS_SPACE) != 1 {
            mul += 2;
        }
        Self {
            mul,
            add: rng.next_u64() % MISS_SPACE,
        }
    }

    /// Row number `g` of the stream as `[t, N, q, k]`.
    pub fn row(&self, g: u64) -> [f64; 4] {
        let mut p = ((u128::from(g % MISS_SPACE) * u128::from(self.mul) + u128::from(self.add))
            % u128::from(MISS_SPACE)) as u64;
        let k = 2 + p % K_VALUES;
        p /= K_VALUES;
        let q = Q_LO + p % Q_VALUES;
        p /= Q_VALUES;
        let n = N_LO + p % N_VALUES;
        p /= N_VALUES;
        let t = 1 + p;
        [t as f64, n as f64, q as f64, k as f64]
    }

    /// The rows of off-grid request `i`.
    pub fn request(&self, i: u64) -> impl Iterator<Item = [f64; 4]> + '_ {
        (0..MISS_ROWS as u64).map(move |j| self.row(i * MISS_ROWS as u64 + j))
    }
}

/// Grid indices of each pooled gateway request (64 distinct grid rows
/// each).
pub fn gateway_pool(grid_len: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Xoshiro256::seeded(seed ^ GATEWAY_SALT);
    (0..GATEWAY_POOL)
        .map(|_| rng.sample_indices(grid_len, GATEWAY_ROWS))
        .collect()
}

/// Seed of `/tune` request `i` in a run seeded `seed`.
pub fn tune_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i)
}

/// Write a `/predict` body over `rows` into `out` (cleared first).
pub fn predict_body<R: AsRef<[f64]>>(rows: impl IntoIterator<Item = R>, out: &mut Vec<u8>) {
    out.clear();
    let _ = write!(
        out,
        "{{\"workload\":\"{WORKLOAD}\",\"kind\":\"{KIND}\",\"version\":1,\"rows\":["
    );
    for (i, row) in rows.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        for (j, &v) in row.as_ref().iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            // Every feature is integral; integer formatting writes the
            // same digits as `f64`'s and costs the client less.
            if v.fract() == 0.0 && (0.0..9e15).contains(&v) {
                let _ = write!(out, "{}", v as u64);
            } else {
                let _ = write!(out, "{v}");
            }
        }
        out.push(b']');
    }
    out.extend_from_slice(b"]}");
}

/// Write a `/tune` body (strategy `active`, the 3% budget) into `out`.
pub fn tune_body(seed: u64, out: &mut Vec<u8>) {
    out.clear();
    let _ = write!(
        out,
        "{{\"workload\":\"{WORKLOAD}\",\"strategy\":\"active\",\"budget\":{TUNE_BUDGET},\"seed\":{seed}}}"
    );
}

/// Frame `body` as one keep-alive HTTP/1.1 POST into `out`.
pub fn post(path: &str, body: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let _ = write!(
        out,
        "POST {path} HTTP/1.1\r\nhost: lambench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body);
}

/// One keep-alive HTTP/1.1 GET.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: lambench\r\n\r\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn miss_rows_are_deterministic_per_seed_and_differ_across_seeds() {
        let (a, b, c) = (MissRows::new(7), MissRows::new(7), MissRows::new(8));
        for g in [0, 1, 12_345, 9_999_999] {
            assert_eq!(a.row(g), b.row(g));
        }
        assert!((0..16).any(|g| a.row(g) != c.row(g)));
    }

    #[test]
    fn miss_rows_never_repeat_within_a_run_budget() {
        // A run sends at most a few million off-grid rows; check a
        // window of requests, including ones far into the stream.
        let rows = MissRows::new(3);
        let mut seen = HashSet::new();
        for i in (0..2000).chain(1_000_000..1_002_000) {
            for row in rows.request(i) {
                let key: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                assert!(seen.insert(key), "row repeated in request {i}");
            }
        }
    }

    #[test]
    fn miss_rows_stay_in_range_with_grid_t_and_k() {
        let rows = MissRows::new(11);
        for g in 0..10_000 {
            let [t, n, q, k] = rows.row(g);
            assert!((1.0..=16.0).contains(&t) && t.fract() == 0.0);
            assert!((1024.0..=65536.0).contains(&n));
            assert!((16.0..=512.0).contains(&q));
            assert!((2.0..=12.0).contains(&k));
        }
    }

    #[test]
    fn orders_and_pools_are_deterministic() {
        let a = hot_order(2112, 5);
        let b = hot_order(2112, 5);
        assert!((0..5000).all(|i| a.at(i) == b.at(i)));
        let bg = bg_order(2112, 5);
        assert!((0..64).any(|i| a.at(i) != bg.at(i)));
        assert_eq!(gateway_pool(2112, 9), gateway_pool(2112, 9));
        for req in gateway_pool(2112, 9) {
            let distinct: HashSet<usize> = req.iter().copied().collect();
            assert_eq!(distinct.len(), GATEWAY_ROWS);
        }
    }

    #[test]
    fn bodies_are_the_documented_json() {
        let mut body = Vec::new();
        predict_body([[1.0, 4096.0, 32.0, 2.0]], &mut body);
        assert_eq!(
            String::from_utf8(body.clone()).unwrap(),
            r#"{"workload":"fmm","kind":"hybrid","version":1,"rows":[[1,4096,32,2]]}"#
        );
        let parsed: lam_serve::http::PredictRequest =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(parsed.rows, vec![vec![1.0, 4096.0, 32.0, 2.0]]);
        let mut framed = Vec::new();
        post("/predict", &body, &mut framed);
        assert!(framed.starts_with(b"POST /predict HTTP/1.1\r\n"));
        assert!(framed.ends_with(&body));
        tune_body(42, &mut body);
        let tune: lam_serve::http::TuneHttpRequest =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!((tune.budget, tune.seed), (TUNE_BUDGET, Some(42)));
    }
}
