/**
 * @file
 * Parallel experiment orchestration.
 *
 * Every paper figure is a sweep of independent simulations — (config
 * × mix) cells plus their single-thread alone-IPC baselines and the
 * four-run CPI breakdowns of Figure 1.  The simulator itself is
 * strictly deterministic, so the sweep is embarrassingly parallel:
 * this runner executes submitted jobs on a fixed-size ThreadPool and
 * guarantees
 *
 *  - **submission-order results**: results are read back by the index
 *    submit*() returned, whatever order workers finished in, so bench
 *    output is byte-identical for every --jobs value;
 *  - **baseline dedup**: alone-IPC baselines are memoized in a
 *    thread-safe map of std::shared_future keyed by
 *    app@configSignature — each baseline simulates exactly once even
 *    when many mixes request it concurrently, and the first
 *    requester computes it inline (no nested pool tasks, so a full
 *    pool can never deadlock on its own futures);
 *  - **first-error propagation**: run() rethrows the error of the
 *    lowest-index failed job, deterministically, regardless of which
 *    worker failed first on the wall clock.
 *
 * With jobs == 1 no threads are created at all: run() executes
 * everything inline in submission order.  runMix() runs one cell on
 * the calling thread against the same baseline memo, for callers
 * that want one result at a time.
 */

#ifndef SMTDRAM_SIM_PARALLEL_RUNNER_HH
#define SMTDRAM_SIM_PARALLEL_RUNNER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace smtdram
{

/**
 * The experiment driver: executes independent experiment jobs on a
 * worker pool, or one at a time on the calling thread.
 */
class ParallelExperimentRunner
{
  public:
    /**
     * @param params instruction budgets and seed for every job.
     * @param jobs worker threads; 1 = serial (no threads spawned),
     *        0 is clamped to 1.
     */
    ParallelExperimentRunner(const ExperimentParams &params,
                             unsigned jobs);

    ParallelExperimentRunner(const ParallelExperimentRunner &) = delete;
    ParallelExperimentRunner &
    operator=(const ParallelExperimentRunner &) = delete;

    /**
     * Run @p mix on @p config on the calling thread and compute its
     * weighted speedup against the memoized alone-IPC baselines.
     * Throws std::invalid_argument if the config's thread count does
     * not match the mix.
     * @param per_config_baselines divide by each application's
     *        single-thread IPC on this same configuration (as in the
     *        paper's Figure 3) instead of the reference machine,
     *        SystemConfig::paperDefault(1).
     */
    MixRun runMix(const SystemConfig &config, const WorkloadMix &mix,
                  bool per_config_baselines = false);

    /**
     * Single-thread IPC of @p app on @p config's memory system,
     * memoized by app@configSignature; computed inline on the first
     * request.  Thread-safe.
     */
    double aloneIpc(const std::string &app, const SystemConfig &config);

    /**
     * Queue one runMix() call.
     * @return the job's index; pass it to mixResult() after run().
     */
    std::size_t submitMix(const SystemConfig &config,
                          const WorkloadMix &mix,
                          bool per_config_baselines = false);

    /**
     * Queue one Figure-1 CPI breakdown (see measureCpiBreakdown).
     * @return the job's index; pass it to cpiResult() after run().
     */
    std::size_t
    submitCpiBreakdown(const std::string &app,
                       const ObservabilityConfig &observe = {});

    /**
     * Execute every job submitted since the last run() and block
     * until all finish.  If any job failed, rethrows the error of
     * the lowest submission index.  May be called repeatedly;
     * already-finished jobs keep their results.
     */
    void run();

    const MixRun &mixResult(std::size_t index) const;
    const CpiBreakdown &cpiResult(std::size_t index) const;

    unsigned jobs() const { return jobs_; }
    std::size_t submitted() const { return jobs_queue_.size(); }

    /**
     * Alone-IPC simulations actually executed (not memo hits).  The
     * dedup guarantee in one number: after any run() or runMix(),
     * this equals the count of distinct (app, baseline-signature)
     * keys needed.
     */
    std::size_t
    baselineSimulations() const
    {
        return baselineSims_.load(std::memory_order_relaxed);
    }

  private:
    struct Job {
        enum class Kind : std::uint8_t { Mix, Cpi } kind;
        // Mix payload.
        SystemConfig config;
        WorkloadMix mix;
        bool perConfigBaselines = false;
        // Cpi payload.
        std::string app;
        ObservabilityConfig observe;
        // Outcome.
        MixRun mixResult;
        CpiBreakdown cpiResult;
        std::exception_ptr error;
        bool done = false;
    };

    void execute(Job &job);

    ExperimentParams params_;
    unsigned jobs_;

    /** unique_ptr for stable addresses while workers fill results. */
    std::vector<std::unique_ptr<Job>> jobs_queue_;
    std::size_t firstPending_ = 0;

    std::mutex baselineMu_;
    std::map<std::string, std::shared_future<double>> baselines_;
    std::atomic<std::size_t> baselineSims_{0};
};

} // namespace smtdram

#endif // SMTDRAM_SIM_PARALLEL_RUNNER_HH
