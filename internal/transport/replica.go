package transport

import (
	"context"

	"pisd/internal/core"
)

// The replication surface of the wire protocol: the version/repair calls
// a replicated front end uses to track, compare and re-sync per-replica
// write state (see internal/cloud/replica.go for the server semantics).

// Version returns the server's last recorded replication write version,
// bounded by ctx — the probe a health checker uses to detect a replica
// that restarted (version 0) or missed writes.
func (c *Client) Version(ctx context.Context) (uint64, error) {
	resp, err := c.call(ctx, &message{typ: msgVersion})
	if err != nil {
		return 0, err
	}
	return resp.version, nil
}

// ApplyVersion records a write version on the server (monotonic max).
func (c *Client) ApplyVersion(v uint64) error {
	_, err := c.call(context.TODO(), &message{typ: msgSetVersion, version: v})
	return err
}

// StoreBucketsVersioned stores buckets and records the write version in
// one atomic exchange, so a concurrent version probe never observes the
// version ahead of the bucket data.
func (c *Client) StoreBucketsVersioned(refs []core.BucketRef, buckets []core.DynBucket, v uint64) error {
	_, err := c.call(context.TODO(), &message{typ: msgStoreBuckets, refs: refs, buckets: buckets, version: v})
	return err
}

// ProfileIDs lists the identifiers of every encrypted profile the server
// stores, ascending — the repair endpoint for mirroring profile stores.
func (c *Client) ProfileIDs() ([]uint64, error) {
	resp, err := c.call(context.TODO(), &message{typ: msgProfileIDs})
	if err != nil {
		return nil, err
	}
	return resp.ids, nil
}
