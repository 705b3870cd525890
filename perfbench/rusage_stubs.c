/* wait4(2) for the benchmark harness: OCaml's Unix library has no way
   to read a child's resource usage, and peak RSS (ru_maxrss) is one of
   the benchmark's end-to-end metrics. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Waits for one child.  Returns (code, maxrss_kib): code is the exit
   status, or -signal when the child was killed; (min_int, 0) reports
   an EINTR so the caller can run pending signal handlers and retry. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, err = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  r = wait4((pid_t)Int_val(vpid), &status, 0, &ru);
  if (r < 0) err = errno;
  caml_leave_blocking_section();
  res = caml_alloc_tuple(2);
  if (r < 0) {
    if (err != EINTR) caml_failwith("wait4 failed");
    Store_field(res, 0, Val_long(Min_long));
    Store_field(res, 1, Val_long(0));
    CAMLreturn(res);
  }
  int code = WIFEXITED(status)     ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? -WTERMSIG(status)
                                   : -1;
  Store_field(res, 0, Val_long(code));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
