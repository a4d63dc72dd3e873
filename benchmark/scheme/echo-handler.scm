;; Per-connection echo handler for Pool::serve: take the adopted socket,
;; echo every chunk until the peer closes. A handler parked in tcp-read is
;; one sealed one-shot continuation.
(let ((c (conn-take)))
  (let loop ()
    (let ((d (tcp-read c 4096)))
      (if (eq? d 'eof)
          (begin (tcp-close c) 'served)
          (begin (tcp-write c d) (loop))))))
