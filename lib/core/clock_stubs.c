/* Monotonic clock for every wall measurement: unlike gettimeofday it
 * never jumps when NTP or a human adjusts the wall clock mid-run. */

#include <caml/mlvalues.h>
#include <caml/fail.h>

#include <time.h>

CAMLprim value repro_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
    caml_failwith("clock_gettime(CLOCK_MONOTONIC)");
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
