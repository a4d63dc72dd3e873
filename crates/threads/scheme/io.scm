;; Guest-facing nonblocking I/O, built on the `%tcp-*` VM builtins and
;; `%engine-block` (engines.scm must be loaded first).
;;
;; The builtins never block: they return #f when the OS says would-block.
;; The retry loops here are where a green thread actually suspends —
;; `%engine-block` takes the running slice's one-shot subcontinuation
;; and ends the slice with (kind . handle); the exec worker registers the
;; wait with the pool's reactor. On readiness the parked job is requeued,
;; its next slice splices the subcontinuation back, and the loop retries
;; the syscall.
;; Readiness is a hint, not a promise (another green thread may win the
;; race for the same listener), so every loop re-checks.

;; (tcp-listen port) -> listener  ; port 0 picks a free port
(define (tcp-listen port) (%tcp-listen port))

;; (tcp-listen-on host port) -> listener bound to a real AF_INET address
;; ("0.0.0.0" listens on every interface).
(define (tcp-listen-on host port) (%tcp-listen host port))

;; (tcp-local-port sock) -> port number actually bound
(define (tcp-local-port sock) (%tcp-local-port sock))

;; A blocked wait resumed with the 'io-timeout status (the connection's
;; I/O deadline expired before readiness) raises the catchable io-timeout
;; condition at the resumption point; any other status retries.
(define (%io-wait kind handle who)
  (if (eq? (%engine-block kind handle) 'io-timeout)
      (raise (cons 'io-timeout who))))

;; (tcp-accept listener) -> stream, suspending until a peer connects.
(define (tcp-accept listener)
  (let ((s (%tcp-accept listener)))
    (if s
        s
        (begin (%io-wait 'read listener "tcp-accept: timed out waiting for a peer")
               (tcp-accept listener)))))

;; (tcp-connect port) -> stream connected to 127.0.0.1:port.
(define (tcp-connect port) (%tcp-connect port))

;; (tcp-connect-to host port) -> stream connected to host:port.
(define (tcp-connect-to host port) (%tcp-connect host port))

;; (conn-take) -> the socket adopted for this handler job by the pool's
;; shared listener. Adoptions and handler spawns are both FIFO on this
;; worker's VM, so taking in order pairs each handler with its own
;; connection; raises io-error if called with nothing pending.
(define (conn-take)
  (let ((s (%conn-take)))
    (if s
        s
        (raise (cons 'io-error "conn-take: no pending connection")))))

;; (tcp-read sock max) -> string of 1..max bytes, or 'eof when the peer
;; closed; suspends until bytes arrive.
(define (tcp-read sock max)
  (let ((r (%tcp-read sock max)))
    (if r
        r
        (begin (%io-wait 'read sock "tcp-read: connection timed out")
               (tcp-read sock max)))))

;; (tcp-write sock str) -> #t after the whole string is written,
;; suspending whenever the send buffer is full. A zero-byte write is a
;; short write against a full buffer, not progress: treat it exactly like
;; would-block and re-suspend, or a large buffer would busy-spin the
;; worker without ever yielding.
(define (tcp-write sock str)
  (let ((len (string-length str)))
    (let loop ((start 0))
      (if (>= start len)
          #t
          (let ((n (%tcp-write sock str start)))
            (if (and n (> n 0))
                (loop (+ start n))
                (begin (%io-wait 'write sock "tcp-write: connection timed out")
                       (loop start))))))))

;; (tcp-close sock) -> #t if it was open.
(define (tcp-close sock) (%tcp-close sock))

;; (timer-wait ms) -> suspends this green thread for at least ms
;; milliseconds without holding a worker. The engine timer keeps
;; preempting CPU-bound jobs; this is the I/O-flavoured sleep.
(define (timer-wait ms)
  (if (> ms 0)
      (%engine-block 'timer ms))
  #t)
