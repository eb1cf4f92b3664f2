package transport

import "time"

// deadline is not a codec file: dialing and pooling may read the clock.
func deadline(d time.Duration) time.Time { return time.Now().Add(d) }
