// Package simtime provides the simulator's clock and the time arithmetic
// shared by the simulator, the scheduling policies, and the lifetime models.
//
// All simulation timestamps are time.Duration offsets from the start of the
// simulated trace. Durations double as lifetimes, and MinRemaining is the
// one floor of every remaining-lifetime prediction. The package also owns
// the two quantization schemes the paper defines:
//
//   - the NILAS temporal-cost buckets {0m, 30m, 60m, 90m, 2h, 3h, 4h, 6h,
//     12h, 24h, 168h} (§4.2), and
//   - the LAVA lifetime classes LC1 (<1h), LC2 (1-10h), LC3 (10-100h) and
//     LC4 (100-1000h) (§4.3).
package simtime
