/* Optional hardware instruction counter (the monotonic clock lives in
 * lib/core/clock_stubs.c).
 *
 * The instruction counter uses perf_event_open counting
 * PERF_COUNT_HW_INSTRUCTIONS for this process in user mode.  Many
 * environments (containers, VMs without PMU virtualisation, hardened
 * kernels) refuse the syscall; callers must treat a negative fd from
 * repro_perf_open as "unavailable" and fall back to allocation
 * metrics, which the OCaml side does.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <string.h>

#if defined(__linux__)

#include <unistd.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <linux/perf_event.h>

CAMLprim value repro_perf_open(value unit)
{
  struct perf_event_attr attr;
  long fd;
  (void)unit;
  memset(&attr, 0, sizeof attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  return Val_long(fd < 0 ? -1 : fd);
}

CAMLprim value repro_perf_start(value vfd)
{
  int fd = Int_val(vfd);
  ioctl(fd, PERF_EVENT_IOC_RESET, 0);
  ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
  return Val_unit;
}

CAMLprim value repro_perf_stop(value vfd)
{
  int fd = Int_val(vfd);
  long long count = -1;
  ioctl(fd, PERF_EVENT_IOC_DISABLE, 0);
  if (read(fd, &count, sizeof count) != sizeof count)
    count = -1;
  return caml_copy_int64(count);
}

#else /* not __linux__: counter never available */

CAMLprim value repro_perf_open(value unit)
{
  (void)unit;
  return Val_long(-1);
}

CAMLprim value repro_perf_start(value vfd)
{
  (void)vfd;
  return Val_unit;
}

CAMLprim value repro_perf_stop(value vfd)
{
  (void)vfd;
  return caml_copy_int64(-1);
}

#endif
