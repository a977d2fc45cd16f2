package core

import (
	"strconv"

	"azureobs/internal/storage/tablesvc"
)

// seqKeys calls f(i, prefix+fmt.Sprintf("%06d", i)) for every i in [0, n).
// The keys are substrings of one string, so n keys cost two allocations.
func seqKeys(prefix string, n int, f func(i int, key string)) {
	buf := make([]byte, 0, n*(len(prefix)+6))
	for i := 0; i < n; i++ {
		buf = append(buf, prefix...)
		for d := 100000; d > 1 && i < d; d /= 10 {
			buf = append(buf, '0')
		}
		buf = strconv.AppendInt(buf, int64(i), 10)
	}
	keys := string(buf)
	at, w, wider := 0, len(prefix)+6, 1_000_000
	for i := 0; i < n; i++ {
		if i == wider {
			w, wider = w+1, wider*10
		}
		f(i, keys[at:at+w])
		at += w
	}
}

// backdoorSlab stores every entity of slab in table with one bulk Backdoor.
func backdoorSlab(svc *tablesvc.Service, table string, slab []tablesvc.Entity) {
	es := make([]*tablesvc.Entity, len(slab))
	for i := range slab {
		es[i] = &slab[i]
	}
	svc.Backdoor(table, es...)
}
