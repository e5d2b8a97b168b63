//! The open-loop generator: requests are sent on a seeded schedule
//! whether or not earlier ones have completed, and each is timed from
//! when it was *due*, so a stall (in the server or in the generator
//! itself) charges its wait to every request queued behind it.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// A Poisson arrival schedule of exactly `round(rate · secs)` requests
/// on `[0, secs)`: given its count, a Poisson process's arrival times
/// are independent uniform draws, so sorting uniform draws samples it
/// while keeping the offered load identical across seeds.
pub fn poisson_schedule(rate: f64, secs: f64, seed: u64) -> Vec<f64> {
    let n = (rate * secs).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..secs)).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// What happened to one scheduled request (times in seconds from the
/// schedule's origin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// When the request was due.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: Option<f64>,
    /// When its checked result was in hand (or its failure known).
    pub done: Option<f64>,
    /// Completed with a correct result.
    pub ok: bool,
}

impl Record {
    /// Latency from the due time, in ms (None if it never completed).
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due) * 1e3)
    }

    /// How late the generator sent it, in ms.
    pub fn lateness_ms(&self) -> Option<f64> {
        self.sent.map(|s| (s - self.due) * 1e3)
    }
}

/// The transport an open loop drives: a clock, a non-blocking send and
/// a bounded wait for completions.
pub trait Driver {
    /// Seconds since the schedule's origin.
    fn now(&self) -> f64;
    /// Sends request `i` (an error completes it as failed).
    fn send(&mut self, i: usize) -> Result<(), String>;
    /// Waits until at most `deadline` for completions, returning
    /// `(request, ok)` pairs; may return early and empty.
    fn poll(&mut self, deadline: f64) -> Vec<(usize, bool)>;
}

/// Runs the schedule `dues` (ascending) through `d`: sends every
/// request as soon as it is due, collects completions in between, and
/// gives up on stragglers at `give_up` (they stay incomplete).
pub fn drive<D: Driver>(d: &mut D, dues: &[f64], give_up: f64) -> Vec<Record> {
    let mut recs: Vec<Record> = dues
        .iter()
        .map(|&due| Record {
            due,
            sent: None,
            done: None,
            ok: false,
        })
        .collect();
    let mut next = 0;
    let mut outstanding = 0usize;
    loop {
        while next < dues.len() && dues[next] <= d.now() {
            let r = d.send(next);
            let now = d.now();
            recs[next].sent = Some(now);
            match r {
                Ok(()) => outstanding += 1,
                Err(_) => recs[next].done = Some(now),
            }
            next += 1;
        }
        let all_sent = next == dues.len();
        if all_sent && (outstanding == 0 || d.now() >= give_up) {
            return recs;
        }
        let deadline = if all_sent { give_up } else { dues[next] };
        for (i, ok) in d.poll(deadline) {
            if recs[i].done.is_none() {
                recs[i].done = Some(d.now());
                recs[i].ok = ok;
                outstanding -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simulated single-worker FIFO server with a virtual clock.
    struct Fifo {
        clock: f64,
        service: Vec<f64>,
        /// Generator-side cost of each send (a stalled sender).
        send_cost: Vec<f64>,
        /// Completion times of sent requests, in send order.
        done_at: Vec<(usize, f64)>,
        busy_until: f64,
    }

    impl Driver for Fifo {
        fn now(&self) -> f64 {
            self.clock
        }
        fn send(&mut self, i: usize) -> Result<(), String> {
            self.clock += self.send_cost[i];
            let start = self.busy_until.max(self.clock);
            self.busy_until = start + self.service[i];
            self.done_at.push((i, self.busy_until));
            Ok(())
        }
        fn poll(&mut self, deadline: f64) -> Vec<(usize, bool)> {
            let next = self
                .done_at
                .iter()
                .map(|&(_, t)| t)
                .fold(f64::INFINITY, f64::min);
            self.clock = self.clock.max(next.min(deadline));
            let clock = self.clock;
            let (ready, rest): (Vec<_>, Vec<_>) =
                self.done_at.iter().partition(|&&(_, t)| t <= clock);
            self.done_at = rest;
            ready.into_iter().map(|(i, _)| (i, true)).collect()
        }
    }

    fn fifo(service: Vec<f64>, send_cost: Vec<f64>) -> Fifo {
        Fifo {
            clock: 0.0,
            service,
            send_cost,
            done_at: Vec::new(),
            busy_until: 0.0,
        }
    }

    #[test]
    fn a_server_stall_is_charged_to_the_requests_behind_it() {
        // due every 10 ms, 1 ms of work each, but request 0 takes 50 ms
        let dues = [0.000, 0.010, 0.020, 0.030, 0.060];
        let mut d = fifo(vec![0.050, 0.001, 0.001, 0.001, 0.001], vec![0.0; 5]);
        let recs = drive(&mut d, &dues, 10.0);
        let lat: Vec<f64> = recs.iter().map(|r| r.latency_ms().unwrap()).collect();
        // 1 waits until 50 ms, 2 until 51, 3 until 52: their latency
        // counts the wait, not just their own 1 ms of service
        let want = [50.0, 41.0, 32.0, 23.0, 1.0];
        for (got, want) in lat.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{lat:?}");
        }
        assert!(recs.iter().all(|r| r.ok && r.lateness_ms() == Some(0.0)));
    }

    #[test]
    fn a_generator_stall_shows_as_lateness_and_latency() {
        // sending request 0 stalls the generator for 30 ms
        let dues = [0.000, 0.010, 0.020, 0.040];
        let mut d = fifo(vec![0.001; 4], vec![0.030, 0.0, 0.0, 0.0]);
        let recs = drive(&mut d, &dues, 10.0);
        let late: Vec<f64> = recs.iter().map(|r| r.lateness_ms().unwrap()).collect();
        assert!((late[1] - 20.0).abs() < 1e-9 && (late[2] - 10.0).abs() < 1e-9);
        assert_eq!(late[3], 0.0);
        // requests 1 and 2 went out at 30 ms and queue behind each other
        let lat1 = recs[1].latency_ms().unwrap();
        let lat2 = recs[2].latency_ms().unwrap();
        assert!((lat1 - 22.0).abs() < 1e-9, "{lat1}");
        assert!((lat2 - 13.0).abs() < 1e-9, "{lat2}");
    }

    #[test]
    fn stragglers_past_the_give_up_time_stay_incomplete() {
        let dues = [0.0, 0.001];
        let mut d = fifo(vec![5.0, 0.001], vec![0.0; 2]);
        let recs = drive(&mut d, &dues, 1.0);
        assert!(recs.iter().all(|r| r.done.is_none() && !r.ok));
        assert!(recs.iter().all(|r| r.sent.is_some()));
    }

    #[test]
    fn schedule_has_exact_count_and_is_seeded() {
        let a = poisson_schedule(200.0, 2.5, 9);
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..2.5).contains(&t)));
        assert_eq!(a, poisson_schedule(200.0, 2.5, 9));
        assert_ne!(a, poisson_schedule(200.0, 2.5, 10));
    }
}
