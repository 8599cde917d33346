/**
 * @file
 * Small statistics helpers shared by the experiment harnesses.
 *
 * The paper reports performance as "the average of 10 runs, after excluding
 * the slowest and fastest runs" (Section 7); trimmedMean implements exactly
 * that estimator. Normalized-runtime summaries use the geometric mean, as
 * in Figure 10.
 */

#ifndef LASER_UTIL_STATS_H
#define LASER_UTIL_STATS_H

#include <cstddef>
#include <vector>

namespace laser {

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &xs);

/** Geometric mean; 0 for an empty sample. Requires all values > 0. */
double geomean(const std::vector<double> &xs);

/**
 * Mean after dropping the single smallest and single largest value,
 * matching the paper's benchmarking methodology. Falls back to the plain
 * mean for samples with fewer than 3 elements.
 */
double trimmedMean(std::vector<double> xs);

/** Population standard deviation; 0 for samples smaller than 2. */
double stddev(const std::vector<double> &xs);

/** Median (average of middle two for even sizes); 0 for empty samples. */
double median(std::vector<double> xs);

/**
 * Linear-interpolated quantile for @p q in [0, 1] (q=0.5 matches
 * median); 0 for empty samples. bench_pipeline reports its per-item
 * p50/p90 latencies through it.
 */
double quantile(std::vector<double> xs, double q);

/** Minimum; 0 for an empty sample. */
double minOf(const std::vector<double> &xs);

/** Maximum; 0 for an empty sample. */
double maxOf(const std::vector<double> &xs);

} // namespace laser

#endif // LASER_UTIL_STATS_H
