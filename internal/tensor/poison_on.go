//go:build poolpoison

package tensor

func init() { poisonPuts = true }
