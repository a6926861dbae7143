//go:build race

package strassen

func init() { raceEnabled = true }
