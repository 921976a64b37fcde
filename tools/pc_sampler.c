/*
 * SIGPROF program-counter sampler, loaded with LD_PRELOAD: no perf,
 * no -pg, no rebuild.  Samples the interrupted PC every
 * PC_SAMPLER_US microseconds of process CPU time (default 1000) and,
 * at exit, writes /proc/self/maps plus one hex PC per line to
 * PC_SAMPLER_OUT (default pc_samples.txt) for tools/pc_profile.py.
 *
 *   gcc -O2 -shared -fPIC -o pc_sampler.so tools/pc_sampler.c
 *   PC_SAMPLER_OUT=s.txt LD_PRELOAD=$PWD/pc_sampler.so ./prog args
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1ul << 22)
static unsigned long *samples;
static unsigned long count;

static void
on_prof(int sig, siginfo_t *info, void *ctx)
{
    const ucontext_t *uc = ctx;
    unsigned long i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    (void)sig, (void)info;
    if (i < MAX_SAMPLES)
#if defined(__x86_64__)
        samples[i] = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
        samples[i] = uc->uc_mcontext.pc;
#endif
}

__attribute__((constructor)) static void
start(void)
{
    const char *us = getenv("PC_SAMPLER_US");
    const long usec = us ? atol(us) : 1000;
    struct itimerval it = {{0, usec}, {0, usec}};
    struct sigaction sa = {0};
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    const char *path = getenv("PC_SAMPLER_OUT");
    FILE *out, *maps;
    char line[1024];
    setitimer(ITIMER_PROF, &off, NULL);
    out = fopen(path ? path : "pc_samples.txt", "w");
    if (!out)
        return;
    if ((maps = fopen("/proc/self/maps", "r"))) {
        while (fgets(line, sizeof line, maps))
            fprintf(out, "map %s", line);
        fclose(maps);
    }
    for (unsigned long i = 0; i < count && i < MAX_SAMPLES; ++i)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}
