// Package apps defines the community-application catalogue used by the
// synthetic Stampede workload generator: the 20 applications of the paper's
// Table 2 (plus enough additional community codes to populate all 12 broad
// categories of Table 3), their characteristic performance signatures, the
// native job-mix weights, and generators for the "Uncategorized" and "NA"
// job populations.
//
// The paper's central empirical claim is that community applications leave
// characteristic, learnable signatures in SUPReMM job summaries, with a
// specific structure of confusability: codes in the same broad category
// (e.g. the molecular-dynamics family) look alike, the dominant
// electronic-structure code VASP has a broad signature that attracts
// misclassifications, and CPU/memory attributes carry most of the signal
// while network attributes carry almost none. The signature model here
// encodes exactly that structure so the downstream classifiers face the
// same problem shape the paper's classifiers faced.
package apps

// MetricID indexes the base (per-node mean) performance quantities an
// application exhibits while running. These correspond to the SUPReMM
// metrics of the paper's Table 1 before across-node aggregation.
type MetricID int

// The base metric set. Rates are per-node per-second unless noted.
const (
	CPUUser        MetricID = iota // fraction of CPU time in user mode
	CPUSystem                      // fraction of CPU time in kernel mode
	CPUIdle                        // fraction of CPU time idle (1 - user - system)
	CPI                            // clock ticks per instruction
	CPLD                           // clock ticks per L1D cache load
	Flops                          // floating point operations per second
	MemUsed                        // bytes of memory used per node (gauge)
	MemBW                          // memory bandwidth, bytes per second
	EthTx                          // ethernet bytes transmitted per second
	IBRx                           // InfiniBand bytes received per second
	IBTx                           // InfiniBand bytes transmitted per second
	HomeWrite                      // bytes per second written to $HOME (NFS)
	ScratchWrite                   // bytes per second written to $SCRATCH
	LustreTx                       // Lustre client bytes transmitted per second
	DiskReadIOPS                   // local disk read operations per second
	DiskReadBytes                  // local disk bytes read per second
	DiskWriteBytes                 // local disk bytes written per second
	NumMetrics                     // count sentinel
)

var metricNames = [NumMetrics]string{
	"CPU_USER", "CPU_SYSTEM", "CPU_IDLE", "CPI", "CPLD", "FLOPS",
	"MEM_USED", "MEM_BW", "ETH_TX", "IB_RX", "IB_TX",
	"HOME_WRITE", "SCRATCH_WRITE", "LUSTRE_TX",
	"DISK_READ_IOPS", "DISK_READ_BYTES", "DISK_WRITE_BYTES",
}

// String returns the canonical metric name (e.g. "CPU_USER").
func (m MetricID) String() string {
	if m < 0 || m >= NumMetrics {
		return "INVALID_METRIC"
	}
	return metricNames[m]
}

// IsFraction reports whether the metric is a CPU-time fraction in [0, 1]
// rather than a positive rate or gauge.
func (m MetricID) IsFraction() bool {
	return m == CPUUser || m == CPUSystem || m == CPUIdle
}

// IsNetwork reports whether the metric measures non-filesystem network
// traffic. The paper finds these contribute almost nothing to the
// application signature; the generator gives them app-independent
// distributions dominated by cluster-wide noise.
func (m MetricID) IsNetwork() bool {
	return m == EthTx || m == IBRx || m == IBTx
}
