package workload

// Partition helpers: Smallbank keys ARE the customer id, so a shard router
// places both seed rows and extracted transaction footprints by customer
// range.

// AccountRangeOf maps a Smallbank customer id (1-based, as seeded) onto one
// of `shards` contiguous account ranges over `customers` accounts: shard i
// owns customers (i*customers/shards, (i+1)*customers/shards]. Out-of-range
// ids clamp to the edge shards so a router never indexes out of bounds.
func AccountRangeOf(custid int64, shards, customers int) int {
	if shards <= 1 {
		return 0
	}
	if custid < 1 {
		return 0
	}
	if custid > int64(customers) {
		return shards - 1
	}
	return int((custid - 1) * int64(shards) / int64(customers))
}
