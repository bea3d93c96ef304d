package analysis

import (
	"sort"
	"sync"

	"repro/internal/fingerprint"
)

// reportAgg is the report layer's read-side aggregate of the client
// state. The Appendix B tables take the {device, ciphersuite list}
// tuple as their unit of analysis and Figure 2 / Figure 10 need every
// device's DoC within its vendor. Enumerating either per table costs a
// pass over every device × print edge (and, for DoC, one such pass per
// vendor); reportAgg makes that pass once. Every builder then works
// once per distinct ciphersuite list and weights the result by device
// counts, so the tables scale with fingerprints × vendors, not devices.
//
// It relies on the Client invariant that DevicePrints and the Prints'
// Devices/Vendors sets describe the same edges, and that DeviceVendor
// names the vendor of every observed device — both constructors
// (NewClient and NewDelta/MergeDelta) maintain it.
type reportAgg struct {
	// vendors are the client's vendor names, sorted; every vendor index
	// below refers to this slice.
	vendors []string
	// keys are the print keys in sorted order; printDevices is a dense
	// len(keys) × len(vendors) matrix: printDevices[p*len(vendors)+v]
	// is the number of vendor v's devices using print keys[p].
	keys         []string
	printDevices []int32
	// lists holds every distinct ciphersuite list, in the order its
	// first print appears in keys.
	lists []suiteList
	// tuples is the number of distinct {device, ciphersuite list}
	// tuples (the paper's 5,827), the sum of every list's devices.
	tuples int
	// deviceDoCs holds, per vendor index, the DoC of each of the
	// vendor's devices within the vendor's device graph, in sorted
	// device order.
	deviceDoCs [][]float64
}

// suiteList is one distinct ciphersuite list and the distinct devices
// proposing it.
type suiteList struct {
	suites []uint16
	// devices counts distinct devices proposing the list under any of
	// its prints; vendors splits that count by vendor, in vendor order.
	devices int
	vendors []vendorCount
}

// vendorCount is a device count for one vendor index.
type vendorCount struct {
	vendor  int
	devices int
}

// aggCell lets concurrent table builders share one aggregate build.
type aggCell struct {
	once sync.Once
	agg  *reportAgg
}

// aggregate returns the client's report aggregate, building it on the
// first call. Concurrent callers share one build. MergeDelta drops the
// aggregate and Clone starts without one, so a merged or cloned client
// rebuilds it on its own first table call; ingest and publish never pay
// for it.
func (c *Client) aggregate() *reportAgg {
	cell := c.agg.Load()
	if cell == nil {
		fresh := &aggCell{}
		if c.agg.CompareAndSwap(nil, fresh) {
			cell = fresh
		} else {
			cell = c.agg.Load()
		}
	}
	cell.once.Do(func() { cell.agg = newReportAgg(c) })
	return cell.agg
}

func newReportAgg(c *Client) *reportAgg {
	a := &reportAgg{keys: c.orderedKeys}

	// Key each print's ciphersuite list once per print.
	printIdx := make(map[string]int32, len(a.keys))
	printList := make([]int32, len(a.keys))
	listIdx := map[string]int32{}
	for p, key := range a.keys {
		printIdx[key] = int32(p)
		suites := c.Prints[key].Print.CipherSuites
		lk := fingerprint.SuiteListKey(suites)
		li, ok := listIdx[lk]
		if !ok {
			li = int32(len(a.lists))
			listIdx[lk] = li
			a.lists = append(a.lists, suiteList{suites: suites})
		}
		printList[p] = li
	}

	// Resolve each observed device's vendor once, in sorted device
	// order (the order DoC values are reported and summed in).
	devs := make([]string, 0, len(c.DevicePrints))
	edges := 0
	for dev, keys := range c.DevicePrints {
		if len(keys) > 0 {
			devs = append(devs, dev)
			edges += len(keys)
		}
	}
	sort.Strings(devs)
	vendorIdx := map[string]int{}
	for _, v := range c.DeviceVendor {
		vendorIdx[v] = 0
	}
	devVendor := make([]string, len(devs))
	for d, dev := range devs {
		devVendor[d] = c.DeviceVendor[dev]
		vendorIdx[devVendor[d]] = 0
	}
	a.vendors = make([]string, 0, len(vendorIdx))
	for v := range vendorIdx {
		a.vendors = append(a.vendors, v)
	}
	sort.Strings(a.vendors)
	for i, v := range a.vendors {
		vendorIdx[v] = i
	}
	nv := len(a.vendors)

	// One pass over device × print edges: devices per (print, vendor)
	// and distinct devices per (list, vendor). A device whose prints
	// share a list counts once for it.
	a.printDevices = make([]int32, len(a.keys)*nv)
	listDevices := make([]int32, len(a.lists)*nv)
	lastDev := make([]int, len(a.lists))
	devPrints := make([]int32, 0, edges)
	for d, dev := range devs {
		v := vendorIdx[devVendor[d]]
		for _, key := range c.DevicePrints[dev] {
			p := printIdx[key]
			devPrints = append(devPrints, p)
			a.printDevices[int(p)*nv+v]++
			if li := printList[p]; lastDev[li] != d+1 {
				lastDev[li] = d + 1
				listDevices[int(li)*nv+v]++
			}
		}
	}
	for li := range a.lists {
		l := &a.lists[li]
		for v, n := range listDevices[li*nv : (li+1)*nv] {
			if n > 0 {
				l.vendors = append(l.vendors, vendorCount{vendor: v, devices: int(n)})
				l.devices += int(n)
			}
		}
		a.tuples += l.devices
	}

	// A device's DoC within its vendor is the fraction of its prints no
	// other device of the vendor uses.
	a.deviceDoCs = make([][]float64, nv)
	off := 0
	for d, dev := range devs {
		v := vendorIdx[devVendor[d]]
		n := len(c.DevicePrints[dev])
		solely := 0
		for _, p := range devPrints[off : off+n] {
			if a.printDevices[int(p)*nv+v] == 1 {
				solely++
			}
		}
		off += n
		a.deviceDoCs[v] = append(a.deviceDoCs[v], float64(solely)/float64(n))
	}
	return a
}

// devicesOf is the number of vendor v's devices using print keys[p].
func (a *reportAgg) devicesOf(p, v int) int {
	return int(a.printDevices[p*len(a.vendors)+v])
}
