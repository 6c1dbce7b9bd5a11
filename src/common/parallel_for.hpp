// Parallel loop for embarrassingly parallel experiment work.
//
// The paper's evaluation runs every configuration ten times with perturbed
// seeds; those runs share nothing, so the experiment harness farms them out
// to a few threads. Tasks are coarse (whole simulations, seconds each), so
// the threads claim indices from one atomic counter; nothing steals work.
//
// Determinism contract: parallelFor never reorders *results*. Callers
// index results by iteration and merge in index order, so a parallel run
// aggregates bit-identically to a sequential one.
#pragma once

#include <cstddef>
#include <functional>

namespace dvmc {

/// std::thread::hardware_concurrency, with a floor of 1.
unsigned hardwareWorkers();

/// Runs body(0) .. body(count-1) on min(jobs, count) threads (jobs 0 =
/// hardwareWorkers()). Iterations are claimed dynamically, so uneven task
/// durations balance out. jobs<=1 or count<=1 degrades to a plain serial
/// loop on the calling thread — the sequential reference path.
///
/// The body must be safe to invoke concurrently for distinct indices and
/// must not throw; each index is invoked exactly once. parallelFor returns
/// only after every iteration has completed.
void parallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)>& body);

}  // namespace dvmc
