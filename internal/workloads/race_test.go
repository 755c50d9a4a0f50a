//go:build race

package workloads

func init() { raceEnabled = true }
