// Package taccstats simulates the TACC_Stats node-level resource-usage
// collector that feeds the SUPReMM pipeline. TACC_Stats runs on every
// compute node, invoked by the batch scheduler's prolog and epilog scripts
// and by cron every ten minutes, and appends one timestamped record per
// device to a per-node archive. Most device values are monotonically
// increasing counters read from the kernel or from hardware performance
// counter MSRs; a few (memory footprint) are gauges.
//
// The simulation reproduces the properties the summarizer must cope with:
// counters start from arbitrary per-node bases (nodes boot long before the
// job), hardware performance counters are 48 bits wide and roll over every
// couple of hours at Stampede-era rates, cron samples are aligned to wall
// clock (so the first interval of a job is usually shorter than the sample
// period), and values for a collection interval reflect bursty, phased
// application behaviour.
package taccstats

// CounterWidth is the bit width of hardware performance-counter registers
// (cycles, instructions, cache loads, flops). Kernel-maintained counters
// are effectively 64-bit; the PMC MSRs are 48-bit and roll over regularly
// on long jobs, which the summarizer must unwrap.
const CounterWidth = 48

// pmcMask masks a value to CounterWidth bits.
const pmcMask = (uint64(1) << CounterWidth) - 1

// Key identifies one field of a device schema.
type Key struct {
	Name string
	// Event marks a monotonically increasing counter; false means gauge.
	Event bool
	// PMC marks a 48-bit hardware counter subject to rollover.
	PMC bool
}

// Schema describes the record layout for one device type.
type Schema struct {
	Device string
	Keys   []Key
}

// Device names used by the default schema set.
const (
	DevCPU   = "cpu"   // kernel CPU accounting (USER_HZ ticks)
	DevPMC   = "pmc"   // hardware performance counters
	DevMem   = "mem"   // memory footprint and bandwidth
	DevNet   = "net"   // ethernet device
	DevIB    = "ib"    // InfiniBand HCA
	DevNFS   = "nfs"   // $HOME filesystem client
	DevLLite = "llite" // Lustre client ($SCRATCH)
	DevLNet  = "lnet"  // Lustre network driver
	DevBlock = "block" // local disk
)

// DefaultSchemas returns the schema set the simulated collector emits,
// modelled on the TACC_Stats Stampede configuration.
func DefaultSchemas() []Schema {
	return []Schema{
		{DevCPU, []Key{
			{Name: "user", Event: true},
			{Name: "system", Event: true},
			{Name: "idle", Event: true},
		}},
		{DevPMC, []Key{
			{Name: "cycles", Event: true, PMC: true},
			{Name: "instructions", Event: true, PMC: true},
			{Name: "l1d_loads", Event: true, PMC: true},
			{Name: "flops", Event: true, PMC: true},
		}},
		{DevMem, []Key{
			{Name: "used", Event: false},
			{Name: "bandwidth_bytes", Event: true},
		}},
		{DevNet, []Key{
			{Name: "tx_bytes", Event: true},
			{Name: "rx_bytes", Event: true},
		}},
		{DevIB, []Key{
			{Name: "rx_bytes", Event: true},
			{Name: "tx_bytes", Event: true},
		}},
		{DevNFS, []Key{
			{Name: "write_bytes", Event: true},
			{Name: "read_bytes", Event: true},
		}},
		{DevLLite, []Key{
			{Name: "write_bytes", Event: true},
			{Name: "read_bytes", Event: true},
		}},
		{DevLNet, []Key{
			{Name: "tx_bytes", Event: true},
			{Name: "rx_bytes", Event: true},
		}},
		{DevBlock, []Key{
			{Name: "rd_ios", Event: true},
			{Name: "rd_bytes", Event: true},
			{Name: "wr_bytes", Event: true},
		}},
	}
}

// SchemaSet indexes schemas by device name.
type SchemaSet map[string]*Schema

// NewSchemaSet builds the index for a schema list.
func NewSchemaSet(schemas []Schema) SchemaSet {
	set := make(SchemaSet, len(schemas))
	for i := range schemas {
		set[schemas[i].Device] = &schemas[i]
	}
	return set
}
