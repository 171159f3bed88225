/* CPU affinity and CPU time of the calling thread, for the batch
   workloads: see affinity.ml. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

static cpu_set_t initial;
static int have_initial = 0;

/* The CPUs this process may run on, as an int array. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  if (!have_initial) {
    if (sched_getaffinity(0, sizeof initial, &initial) != 0)
      CAMLreturn(caml_alloc_tuple(0));
    have_initial = 1;
  }
  int n = CPU_COUNT(&initial), k = 0;
  res = n == 0 ? Atom(0) : caml_alloc_tuple(n);
  for (int cpu = 0; cpu < CPU_SETSIZE && k < n; cpu++)
    if (CPU_ISSET(cpu, &initial)) Store_field(res, k++, Val_int(cpu));
  CAMLreturn(res);
}

/* Run the calling thread on [cpu] only, or on every allowed CPU again
   when [cpu] is negative. Returns whether the kernel accepted it. */
value perfbench_set_cpu(value cpu)
{
  cpu_set_t set;
  if (Int_val(cpu) < 0) {
    if (!have_initial) return Val_true;
    set = initial;
  } else {
    CPU_ZERO(&set);
    CPU_SET(Int_val(cpu), &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* CPU time of the calling thread, in seconds (CLOCK_THREAD_CPUTIME_ID:
   nanosecond resolution, unlike times(2)). */
value perfbench_thread_cpu(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return caml_copy_double(0.0);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
