package stream

import (
	"errors"
	"time"

	"tieredpricing/internal/netflow"
)

// ShardedWindow, NewShardedWindow and Deal keep bench/layers compiling
// now that the window has no shards; moving it onto NewWindow deletes
// this file.
type ShardedWindow = Window

// NewShardedWindow is NewWindow when shards is 1 and an error otherwise.
func NewShardedWindow(rule netflow.BucketRule, slotDur time.Duration, slots, shards int) (*Window, error) {
	if shards != 1 {
		return nil, errors.New("stream: the window has exactly one shard")
	}
	return NewWindow(rule, slotDur, slots)
}

// Deal hands fn the records whole, as the one shard's.
func (w *Window) Deal(recs []netflow.Record, fn func(shard int, recs []netflow.Record)) {
	fn(0, recs)
}
