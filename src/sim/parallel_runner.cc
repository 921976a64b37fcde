#include "sim/parallel_runner.hh"

#include <stdexcept>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace smtdram
{

ParallelExperimentRunner::ParallelExperimentRunner(
    const ExperimentParams &params, unsigned jobs)
    : params_(params), jobs_(jobs == 0 ? 1 : jobs)
{
}

std::size_t
ParallelExperimentRunner::submitMix(const SystemConfig &config,
                                    const WorkloadMix &mix,
                                    bool per_config_baselines)
{
    auto job = std::make_unique<Job>();
    job->kind = Job::Kind::Mix;
    job->config = config;
    job->mix = mix;
    job->perConfigBaselines = per_config_baselines;
    jobs_queue_.push_back(std::move(job));
    return jobs_queue_.size() - 1;
}

std::size_t
ParallelExperimentRunner::submitCpiBreakdown(
    const std::string &app, const ObservabilityConfig &observe)
{
    auto job = std::make_unique<Job>();
    job->kind = Job::Kind::Cpi;
    job->app = app;
    job->observe = observe;
    jobs_queue_.push_back(std::move(job));
    return jobs_queue_.size() - 1;
}

double
ParallelExperimentRunner::aloneIpc(const std::string &app,
                                   const SystemConfig &config)
{
    const std::string key = app + "@" + configSignature(config);

    std::shared_future<double> fut;
    std::promise<double> mine;
    bool compute = false;
    {
        std::lock_guard<std::mutex> lock(baselineMu_);
        auto it = baselines_.find(key);
        if (it != baselines_.end()) {
            fut = it->second;
        } else {
            // First requester: claim the key, then simulate outside
            // the lock.  Waiters block on the shared_future, never on
            // a queued pool task, so a saturated pool cannot deadlock.
            fut = mine.get_future().share();
            baselines_.emplace(key, fut);
            compute = true;
        }
    }
    if (compute) {
        baselineSims_.fetch_add(1, std::memory_order_relaxed);
        try {
            mine.set_value(simulateAloneIpc(app, config, params_));
        } catch (...) {
            mine.set_exception(std::current_exception());
        }
    }
    return fut.get();
}

MixRun
ParallelExperimentRunner::runMix(const SystemConfig &config,
                                 const WorkloadMix &mix,
                                 bool per_config_baselines)
{
    // An exception rather than fatal(): one malformed cell fails the
    // sweep cleanly (and deterministically: run() rethrows by
    // submission index) instead of killing the process from a worker
    // thread.
    if (config.core.numThreads != mix.apps.size()) {
        throw std::invalid_argument(
            "config has " + std::to_string(config.core.numThreads) +
            " threads but mix '" + mix.name + "' has " +
            std::to_string(mix.apps.size()) + " apps");
    }

    MixRun out;
    out.run = runSystem(config, profilesForMix(mix), params_.seed,
                        params_.measureInsts, params_.warmupInsts);
    const SystemConfig reference = SystemConfig::paperDefault(1);
    for (size_t i = 0; i < mix.apps.size(); ++i) {
        out.weightedSpeedup +=
            out.run.ipc[i] /
            aloneIpc(mix.apps[i],
                     per_config_baselines ? config : reference);
    }
    return out;
}

void
ParallelExperimentRunner::execute(Job &job)
{
    try {
        if (job.kind == Job::Kind::Mix) {
            job.mixResult =
                runMix(job.config, job.mix, job.perConfigBaselines);
        } else {
            job.cpiResult = measureCpiBreakdown(
                job.app, params_.measureInsts, params_.warmupInsts,
                params_.seed, job.observe);
        }
    } catch (...) {
        job.error = std::current_exception();
    }
    job.done = true;
}

void
ParallelExperimentRunner::run()
{
    const std::size_t begin = firstPending_;
    const std::size_t end = jobs_queue_.size();
    firstPending_ = end;

    if (jobs_ <= 1) {
        // Serial: no threads, submission order.
        for (std::size_t i = begin; i < end; ++i)
            execute(*jobs_queue_[i]);
    } else {
        ThreadPool pool(jobs_);
        for (std::size_t i = begin; i < end; ++i)
            pool.submit([this, i] { execute(*jobs_queue_[i]); });
        pool.wait();
    }

    // First-error propagation: by submission index, not wall clock.
    for (std::size_t i = begin; i < end; ++i) {
        if (jobs_queue_[i]->error)
            std::rethrow_exception(jobs_queue_[i]->error);
    }
}

const MixRun &
ParallelExperimentRunner::mixResult(std::size_t index) const
{
    panic_if(index >= jobs_queue_.size(), "job index out of range");
    const Job &job = *jobs_queue_[index];
    panic_if(job.kind != Job::Kind::Mix, "job %zu is not a mix run",
             index);
    panic_if(!job.done, "job %zu not run yet (call run())", index);
    return job.mixResult;
}

const CpiBreakdown &
ParallelExperimentRunner::cpiResult(std::size_t index) const
{
    panic_if(index >= jobs_queue_.size(), "job index out of range");
    const Job &job = *jobs_queue_[index];
    panic_if(job.kind != Job::Kind::Cpi,
             "job %zu is not a CPI breakdown", index);
    panic_if(!job.done, "job %zu not run yet (call run())", index);
    return job.cpiResult;
}

} // namespace smtdram
