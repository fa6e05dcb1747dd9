//! The seeded query mix of the `serve-query` workload — the same mix
//! `serve_load` uses: 80% single `verdict`, 10% 8-cell `verdicts`, 5%
//! `summary`, 5% `missing`. The seed decides every request; the same
//! seed always yields the same sequence.

use loupe_serve::{CellQuery, Request};

/// Deterministic xorshift64*.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Spread small seeds over the state space; never zero.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The command names in the order their samples are reported.
pub const COMMANDS: [&str; 4] = ["verdict", "verdicts", "summary", "missing"];

pub struct Mix {
    rng: Rng,
    oses: Vec<String>,
    apps: Vec<String>,
}

impl Mix {
    pub fn new(seed: u64, oses: Vec<String>, apps: Vec<String>) -> Mix {
        Mix {
            rng: Rng::new(seed),
            oses,
            apps,
        }
    }

    fn pick(&mut self, from_oses: bool) -> String {
        let r = self.rng.next();
        let pool = if from_oses { &self.oses } else { &self.apps };
        pool[(r % pool.len() as u64) as usize].clone()
    }

    /// The next request and the index of its command in [`COMMANDS`].
    pub fn next(&mut self) -> (Request, usize) {
        let roll = self.rng.next() % 100;
        if roll < 80 {
            let tier = if roll.is_multiple_of(2) {
                "vanilla"
            } else {
                "planned"
            };
            let request = Request {
                cmd: "verdict".to_owned(),
                os: Some(self.pick(true)),
                app: Some(self.pick(false)),
                workload: Some("health".to_owned()),
                tier: Some(tier.to_owned()),
                ..Request::default()
            };
            (request, 0)
        } else if roll < 90 {
            let cells = (0..8)
                .map(|_| CellQuery {
                    os: self.pick(true),
                    app: self.pick(false),
                    workload: Some("health".to_owned()),
                    tier: Some("planned".to_owned()),
                })
                .collect();
            let request = Request {
                cmd: "verdicts".to_owned(),
                cells,
                ..Request::default()
            };
            (request, 1)
        } else if roll < 95 {
            let request = Request {
                cmd: "summary".to_owned(),
                ..Request::default()
            };
            (request, 2)
        } else {
            let request = Request {
                cmd: "missing".to_owned(),
                os: Some(self.pick(true)),
                limit: Some(5),
                ..Request::default()
            };
            (request, 3)
        }
    }
}
