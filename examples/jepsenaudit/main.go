// Jepsenaudit checks Jepsen histories (EDN logs) the way the paper's
// Figure 14 does with public bug-report histories: convert, validate,
// check, and explain. It embeds two miniature logs — a healthy list-append
// run (whose write order is fully manifested, so checking is linear) and a
// register run exhibiting the long-fork anomaly.
package main

import (
	"fmt"
	"time"

	"viper"
	"viper/internal/core"
	"viper/internal/jepsen"
)

// healthyAppend is a Jepsen list-append log: appends manifest write order
// through the lists reads return (§7.1's translation applies).
const healthyAppend = `
{:type :invoke, :f :txn, :value [[:append 1 10]], :process 0, :time 100}
{:type :ok,     :f :txn, :value [[:append 1 10]], :process 0, :time 200}
{:type :invoke, :f :txn, :value [[:append 1 11] [:append 2 20]], :process 1, :time 210}
{:type :ok,     :f :txn, :value [[:append 1 11] [:append 2 20]], :process 1, :time 300}
{:type :invoke, :f :txn, :value [[:r 1 nil] [:r 2 nil]], :process 0, :time 310}
{:type :ok,     :f :txn, :value [[:r 1 [10 11]] [:r 2 [20]]], :process 0, :time 400}
`

// longForkRegisters is a register run where two readers observe two
// concurrent updates in opposite orders — not SI (the §3.1 long fork).
const longForkRegisters = `
{:type :invoke, :f :txn, :value [[:w 1 1] [:w 2 1]], :process 0, :time 1}
{:type :ok,     :f :txn, :value [[:w 1 1] [:w 2 1]], :process 0, :time 2}
{:type :invoke, :f :txn, :value [[:r 1 nil] [:w 1 2]], :process 1, :time 3}
{:type :ok,     :f :txn, :value [[:r 1 1] [:w 1 2]],   :process 1, :time 4}
{:type :invoke, :f :txn, :value [[:r 2 nil] [:w 2 2]], :process 2, :time 5}
{:type :ok,     :f :txn, :value [[:r 2 1] [:w 2 2]],   :process 2, :time 6}
{:type :invoke, :f :txn, :value [[:r 1 nil] [:r 2 nil]], :process 3, :time 7}
{:type :ok,     :f :txn, :value [[:r 1 2] [:r 2 1]],     :process 3, :time 8}
{:type :invoke, :f :txn, :value [[:r 1 nil] [:r 2 nil]], :process 4, :time 9}
{:type :ok,     :f :txn, :value [[:r 1 1] [:r 2 2]],     :process 4, :time 10}
`

func main() {
	audit("healthy list-append run", healthyAppend)
	audit("long-fork register run", longForkRegisters)
}

func audit(label, edn string) {
	h, err := jepsen.Parse(edn)
	if err != nil {
		// Some violations (aborted reads, fabricated values) surface
		// already at conversion/validation time.
		fmt.Printf("%-26s reject at validation: %v\n", label+":", err)
		return
	}
	res := viper.Check(h, viper.Options{Level: viper.AdyaSI, Timeout: time.Minute})
	fmt.Printf("%-26s %s", label+":", res.Outcome)
	if res.Report != nil {
		fmt.Printf(" (%d txns, %d constraints", h.Len(), res.Report.Constraints)
		if res.Outcome == viper.Reject && res.Report.KnownCycle != nil {
			fmt.Printf("; cycle:")
			for _, e := range core.RenderCycle(h, res.Report.KnownCycle, core.Options{Level: core.AdyaSI}) {
				fmt.Printf(" %s→%s", e.From, e.To)
			}
		}
		fmt.Printf(")")
	}
	fmt.Println()
	if res.Outcome == viper.Reject {
		return
	}
	// A healthy run: ask the stricter question too.
	strong := viper.Check(h, viper.Options{Level: viper.StrongSessionSI, Timeout: time.Minute})
	fmt.Printf("%-26s %s at strong-session-si\n", "", strong.Outcome)
}
