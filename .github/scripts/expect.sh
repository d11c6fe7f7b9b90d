# Sourced by the console-script steps of ci.yml.
#
# expect WANT COMMAND [ARG...] runs COMMAND under `timeout 10`, with its
# stdout in /tmp/case.out and its stderr in /tmp/case.err, and prints the
# stderr.  It fails the step unless COMMAND exits with status WANT and its
# stderr holds no Traceback; for WANT = 2, a refused input, stdout must also
# be empty and stderr one line.
expect() {
  want=$1; shift
  status=0
  timeout 10 "$@" > /tmp/case.out 2> /tmp/case.err || status=$?
  cat /tmp/case.err
  if [ "$status" -ne "$want" ]; then echo "expected exit $want, got $status: $*"; exit 1; fi
  if grep -q Traceback /tmp/case.err; then exit 1; fi
  if [ "$want" -eq 2 ]; then test ! -s /tmp/case.out && test "$(wc -l < /tmp/case.err)" -eq 1 || exit 1; fi
}
